/**
 * @file
 * Hot-loop speedup: wall time of detailed-mode simulation under the
 * two run-loop variants — the reference per-cycle scanning loop (seed)
 * and the event-driven core (event) — on a compute-bound workload (mm)
 * and a memory-bound one (spmv). Both variants must report identical
 * cycle and instruction counts (the loops are bit-identical by
 * construction; this bench re-checks it); only wall time may differ.
 *
 * Measurement protocol: one untimed warm-up run per variant (page-in,
 * allocator and cache warm-up), then an odd number of timed
 * repetitions interleaved across variants, reporting the median wall
 * time. The JSON records the host's hardware_concurrency.
 *
 * Writes BENCH_hotloop.json in the working directory for the CI
 * perf-smoke artifact.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "driver/report.hpp"
#include "sampling/telemetry.hpp"
#include "timing/gpu.hpp"

using namespace photon;

namespace {

struct VariantResult
{
    std::string workload;
    std::string variant;
    Cycle cycles = 0;
    std::uint64_t insts = 0;
    double wallSeconds = 0.0; ///< median over the timed repetitions
    double speedupVsSeed = 0.0;
    std::uint32_t reps = 0;
};

/**
 * Run every launch of a fresh workload instance through Gpu::runKernel
 * directly (bypassing the sampler layer) so the run-loop variant can be
 * selected per run. Wall time covers only the detailed simulation, not
 * setup.
 */
VariantResult
runVariantOnce(const std::string &name,
               const bench::WorkloadFactory &factory,
               const std::string &variant, bool seed_loop)
{
    driver::Platform platform(GpuConfig::r9Nano(),
                              driver::SimMode::FullDetailed);
    workloads::WorkloadPtr w = factory();
    w->setup(platform);

    timing::RunOptions opts;
    opts.useSeedLoop = seed_loop;

    VariantResult r;
    r.workload = name;
    r.variant = variant;
    auto t0 = std::chrono::steady_clock::now();
    for (const workloads::LaunchSpec &l : w->launches()) {
        func::LaunchDims dims{l.numWorkgroups, l.wavesPerWorkgroup,
                              l.kernarg};
        timing::RunOutcome out = platform.gpu().runKernel(
            *l.program, dims, platform.mem(), nullptr, opts);
        r.cycles += out.cycles();
        r.insts += out.instsIssued;
    }
    auto t1 = std::chrono::steady_clock::now();
    r.wallSeconds = std::chrono::duration<double>(t1 - t0).count();
    return r;
}

/** Reduce timed repetitions to one row: the median wall time (odd rep
 *  counts have a true middle element) over deterministic cycle counts. */
VariantResult
medianOf(std::vector<VariantResult> samples)
{
    std::sort(samples.begin(), samples.end(),
              [](const VariantResult &a, const VariantResult &b) {
                  return a.wallSeconds < b.wallSeconds;
              });
    VariantResult r = samples[samples.size() / 2];
    r.reps = static_cast<std::uint32_t>(samples.size());
    return r;
}

void
writeJson(const std::vector<VariantResult> &rows, const char *path)
{
    std::ofstream f(path);
    if (!f) {
        std::fprintf(stderr, "cannot open %s\n", path);
        return;
    }
    f << "{\n  \"bench\": \"hotloop_speedup\",\n"
      << "  \"telemetry_schema_version\": "
      << sampling::kTelemetrySchemaVersion << ",\n"
      << "  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency()
      << ",\n  \"timing\": \"median\",\n  \"runs\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const VariantResult &r = rows[i];
        f << "    {\"workload\": \"" << r.workload << "\", \"variant\": \""
          << r.variant << "\", \"reps\": " << r.reps
          << ", \"cycles\": " << r.cycles
          << ", \"insts\": " << r.insts << ", \"wall_s\": " << r.wallSeconds
          << ", \"cycles_per_sec\": "
          << (r.wallSeconds > 0 ? static_cast<double>(r.cycles) /
                                      r.wallSeconds
                                : 0.0)
          << ", \"speedup_vs_seed\": " << r.speedupVsSeed << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    f << "  ]\n}\n";
    std::printf("wrote %s\n", path);
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = bench::quickMode(argc, argv);
    const std::uint32_t mm_n = quick ? 128 : 256;
    const std::uint32_t spmv_rows = quick ? 1024 : 4096;
    // Odd so the median is a real sample, not an interpolation.
    const std::uint32_t reps = quick ? 3 : 5;
    const std::uint32_t cores = std::thread::hardware_concurrency();

    const struct
    {
        const char *name;
        bench::WorkloadFactory factory;
    } workloads_under_test[] = {
        {"mm", [&] { return workloads::makeMm(mm_n); }},
        {"spmv", [&] { return workloads::makeSpmv(spmv_rows); }},
    };

    driver::printBanner(std::cout,
                        "Detailed-mode hot-loop speedup (r9nano)");
    std::printf("mm n=%u, spmv rows=%u; %u hardware cores, "
                "%u reps (median) after 1 warm-up\n\n",
                mm_n, spmv_rows, cores, reps);

    std::vector<VariantResult> rows;
    driver::Table table({"workload", "variant", "cycles", "wall_s",
                         "Mcyc/s", "speedup"});
    for (const auto &wt : workloads_under_test) {
        struct
        {
            const char *variant;
            bool seedLoop;
            std::vector<VariantResult> samples;
        } variants[] = {
            {"seed", true, {}},
            {"event", false, {}},
        };
        // One untimed warm-up per variant, then interleave the timed
        // repetitions so background load on the host biases none of
        // them.
        for (auto &v : variants)
            (void)runVariantOnce(wt.name, wt.factory, v.variant,
                                 v.seedLoop);
        for (std::uint32_t i = 0; i < reps; ++i)
            for (auto &v : variants)
                v.samples.push_back(runVariantOnce(
                    wt.name, wt.factory, v.variant, v.seedLoop));

        VariantResult seed = medianOf(std::move(variants[0].samples));
        VariantResult event = medianOf(std::move(variants[1].samples));
        seed.speedupVsSeed = 1.0;
        event.speedupVsSeed = seed.wallSeconds / event.wallSeconds;
        for (const VariantResult *r : {&seed, &event}) {
            if (r->cycles != seed.cycles || r->insts != seed.insts) {
                std::fprintf(stderr,
                             "FAIL: %s/%s diverged from the seed loop "
                             "(%llu vs %llu cycles)\n",
                             r->workload.c_str(), r->variant.c_str(),
                             static_cast<unsigned long long>(r->cycles),
                             static_cast<unsigned long long>(
                                 seed.cycles));
                return 1;
            }
            table.addRow({r->workload, r->variant,
                          std::to_string(r->cycles),
                          driver::Table::num(r->wallSeconds, 3),
                          driver::Table::num(r->cycles / r->wallSeconds /
                                             1e6),
                          driver::Table::num(r->speedupVsSeed)});
            rows.push_back(*r);
        }
    }
    table.print(std::cout);
    std::printf(
        "\nevent vs seed is the structural win (no per-cycle CU scan).\n");

    writeJson(rows, "BENCH_hotloop.json");
    return 0;
}
