/**
 * @file
 * Timing-backend fidelity/speed trade-off: wall time and predicted
 * cycles of the detailed core, the analytical interval backend, and
 * auto mode (detailed until the stability detectors converge, interval
 * for the remainder) on a compute-bound workload (mm), a memory-bound
 * one (spmv) and an iterative one (pagerank, where the cross-kernel
 * latch pays off).
 *
 * The interval backend trades accuracy for speed by construction — no
 * event loop, no MSHR or bank contention — so each interval row
 * carries an explicit error bound and minimum speedup, and the bench
 * FAILS when a bound is violated. The bounds are honest: spmv's is
 * wide because its runtime is dominated by DRAM-contention behaviour
 * the closed-form floors cannot reproduce (see DESIGN.md); auto mode
 * is the answer when that error is unacceptable.
 *
 * Measurement protocol: deterministic cycle counts are asserted
 * identical across repetitions; wall times report the median of an
 * odd repetition count. Writes BENCH_backend.json in the working
 * directory for the CI perf-smoke artifact.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "driver/report.hpp"
#include "sampling/telemetry.hpp"
#include "service/campaign.hpp"

using namespace photon;

namespace {

struct BackendRun
{
    std::string workload;
    std::uint32_t size = 0;
    std::string backend;
    Cycle cycles = 0;
    std::uint64_t insts = 0;
    double wallSeconds = 0.0; ///< median over the timed repetitions
    double wallMin = 0.0;     ///< fastest repetition
    double wallMax = 0.0;     ///< slowest repetition
    double spreadPct = 0.0;   ///< (max - min) / median, percent
    bool spreadFlagged = false; ///< spread exceeded kSpreadLimitPct
    double errorPct = 0.0;    ///< |cycles - detailed| / detailed
    double speedup = 0.0;     ///< detailed wall / this wall
    std::uint32_t reps = 0;
    // Auto-mode switch evidence (zero for the other backends).
    std::uint64_t latchedKernels = 0;
    std::uint64_t intervalLaunches = 0;
    // Gates (0 = not gated).
    double errorBoundPct = 0.0;
    double minSpeedup = 0.0;
};

BackendRun
runOnce(const std::string &name, std::uint32_t size,
        const bench::WorkloadFactory &factory, timing::BackendKind kind)
{
    driver::Platform platform(GpuConfig::r9Nano(),
                              driver::SimMode::FullDetailed, {}, kind);
    // No trace store is attached: this bench compares the backends'
    // own timing paths, not trace economics (bench/trace_reuse owns
    // that), so every launch emulates inline.
    workloads::WorkloadPtr w = factory();
    w->setup(platform);
    workloads::runWorkload(*w, platform);

    BackendRun r;
    r.workload = name;
    r.size = size;
    r.backend = timing::backendKindName(kind);
    r.cycles = platform.totalKernelCycles();
    r.insts = platform.totalInsts();
    r.wallSeconds = platform.totalWallSeconds();
    if (platform.pilot()) {
        r.latchedKernels = platform.pilot()->latchedKernels();
        r.intervalLaunches = platform.pilot()->intervalLaunches();
    }
    return r;
}

/** Repetition spread above this fraction of the median marks the
 *  measurement as noisy (flagged in the output and the JSON, not a
 *  failure — host load is not the simulator's regression). */
constexpr double kSpreadLimitPct = 15.0;

/** Median wall time over deterministic cycle counts (odd rep counts
 *  have a true middle element), plus the min/max envelope and a
 *  noisy-measurement flag when the spread exceeds kSpreadLimitPct. */
BackendRun
medianOf(std::vector<BackendRun> samples)
{
    for (const BackendRun &s : samples) {
        if (s.cycles != samples[0].cycles) {
            std::fprintf(stderr,
                         "FAIL: %s/%s nondeterministic (%llu vs %llu "
                         "cycles)\n",
                         s.workload.c_str(), s.backend.c_str(),
                         static_cast<unsigned long long>(s.cycles),
                         static_cast<unsigned long long>(
                             samples[0].cycles));
            std::exit(1);
        }
    }
    std::sort(samples.begin(), samples.end(),
              [](const BackendRun &a, const BackendRun &b) {
                  return a.wallSeconds < b.wallSeconds;
              });
    BackendRun r = samples[samples.size() / 2];
    r.reps = static_cast<std::uint32_t>(samples.size());
    r.wallMin = samples.front().wallSeconds;
    r.wallMax = samples.back().wallSeconds;
    r.spreadPct = r.wallSeconds > 0
                      ? 100.0 * (r.wallMax - r.wallMin) / r.wallSeconds
                      : 0.0;
    r.spreadFlagged = r.reps > 1 && r.spreadPct > kSpreadLimitPct;
    if (r.spreadFlagged) {
        std::fprintf(stderr,
                     "WARN: %s/%s wall-time spread %.1f%% over %u reps "
                     "(min %.3fs median %.3fs max %.3fs) — noisy host, "
                     "treat the speedup with suspicion\n",
                     r.workload.c_str(), r.backend.c_str(), r.spreadPct,
                     r.reps, r.wallMin, r.wallSeconds, r.wallMax);
    }
    return r;
}

void
writeJson(const std::vector<BackendRun> &rows, const char *path)
{
    std::ofstream f(path);
    if (!f) {
        std::fprintf(stderr, "cannot open %s\n", path);
        return;
    }
    f << "{\n  \"bench\": \"backend_speedup\",\n"
      << "  \"telemetry_schema_version\": "
      << sampling::kTelemetrySchemaVersion
      << ",\n  \"timing\": \"median\",\n  \"runs\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const BackendRun &r = rows[i];
        f << "    {\"workload\": \"" << r.workload
          << "\", \"size\": " << r.size << ", \"backend\": \""
          << r.backend << "\", \"reps\": " << r.reps
          << ", \"cycles\": " << r.cycles << ", \"insts\": " << r.insts
          << ", \"wall_s\": " << r.wallSeconds
          << ", \"wall_min_s\": " << r.wallMin
          << ", \"wall_max_s\": " << r.wallMax
          << ", \"spread_pct\": " << r.spreadPct
          << ", \"spread_flagged\": "
          << (r.spreadFlagged ? "true" : "false")
          << ", \"error_vs_detailed_pct\": " << r.errorPct
          << ", \"speedup_vs_detailed\": " << r.speedup
          << ", \"error_bound_pct\": " << r.errorBoundPct
          << ", \"min_speedup\": " << r.minSpeedup
          << ", \"latched_kernels\": " << r.latchedKernels
          << ", \"interval_launches\": " << r.intervalLaunches << "}"
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
    // Odd so the median is a real sample, not an interpolation.
    const std::uint32_t reps = quick ? 1 : 3;

    /** Per-workload gates. The interval bounds are deliberately wide
     *  where the analytical model is known weak (spmv, see file
     *  comment); the auto bound is tight because auto only leaves the
     *  detailed core once a kernel's duration has proven stable. */
    struct Case
    {
        const char *name;
        std::uint32_t size;
        bench::WorkloadFactory factory;
        double intervalErrBound; ///< percent
        double intervalMinSpeedup;
        double autoErrBound;   ///< percent; 0 = not gated
        double autoMinSpeedup; ///< 0 = not gated
    };
    const std::uint32_t mm_n = quick ? 128 : 256;
    const std::uint32_t spmv_rows = quick ? 1024 : 2048;
    const std::uint32_t pr_nodes = quick ? 4096 : 16384;
    // The headline >= 5x interval speedups need full-size runs: the
    // quick sizes finish in milliseconds, where per-launch setup
    // dominates, so quick mode gates correspondingly lower.
    // Gates sit below the typically measured speedups (mm ~5-6.5x,
    // spmv ~6-7x full size) so host-load noise cannot flake them; the
    // committed BENCH_backend.json records the actual medians.
    const double mm_spd = quick ? 3.0 : 4.0;
    const double spmv_spd = quick ? 2.0 : 5.0;
    const double pr_spd = quick ? 1.2 : 1.5;
    // Never-latching workloads (mm, spmv run each kernel once, so the
    // cross-kernel detector can never converge): the pilot's
    // unmonitored passthrough must make auto indistinguishable from
    // detailed — cycle-exact, and no slower than measurement noise
    // allows. The quick gate is looser only because single-rep
    // millisecond runs are at the mercy of the scheduler.
    const double auto_parity_spd = quick ? 0.90 : 0.98;
    // Sizes mean what they mean on the CLI: the factory goes through
    // service::makeWorkload, so "spmv 2048" here is the same job as
    // `photon_sim --workload spmv --size 2048`.
    auto factory = [](const char *name, std::uint32_t size) {
        return [name, size] {
            std::string err;
            auto w = service::makeWorkload(name, size, &err);
            if (!w) {
                std::fprintf(stderr, "bad workload: %s\n", err.c_str());
                std::exit(1);
            }
            return w;
        };
    };
    const Case cases[] = {
        {"mm", mm_n, factory("mm", mm_n),
         /*intervalErrBound=*/55.0, /*intervalMinSpeedup=*/mm_spd,
         /*autoErrBound=*/0.01, /*autoMinSpeedup=*/auto_parity_spd},
        {"spmv", spmv_rows, factory("spmv", spmv_rows),
         /*intervalErrBound=*/98.0, /*intervalMinSpeedup=*/spmv_spd,
         /*autoErrBound=*/0.01, /*autoMinSpeedup=*/auto_parity_spd},
        {"pagerank", pr_nodes, factory("pagerank", pr_nodes),
         /*intervalErrBound=*/75.0, /*intervalMinSpeedup=*/pr_spd,
         /*autoErrBound=*/5.0, /*autoMinSpeedup=*/1.05},
    };

    driver::printBanner(std::cout,
                        "Timing-backend speed/fidelity trade-off "
                        "(r9nano, full-detailed mode)");
    std::printf("mm n=%u, spmv rows=%u, pagerank nodes=%u; "
                "%u reps (median) after 1 warm-up\n\n",
                mm_n, spmv_rows, pr_nodes, reps);

    const timing::BackendKind kinds[] = {timing::BackendKind::Detailed,
                                         timing::BackendKind::Interval,
                                         timing::BackendKind::Auto};

    bool ok = true;
    std::vector<BackendRun> rows;
    driver::Table table({"workload", "backend", "cycles", "wall_s",
                         "err%", "speedup", "latched"});
    for (const Case &c : cases) {
        // One untimed warm-up (page-in, allocator), then interleave
        // the timed repetitions so host load biases no backend.
        std::vector<BackendRun> samples[3];
        for (int k = 0; k < 3; ++k)
            (void)runOnce(c.name, c.size, c.factory, kinds[k]);
        for (std::uint32_t i = 0; i < reps; ++i)
            for (int k = 0; k < 3; ++k)
                samples[k].push_back(
                    runOnce(c.name, c.size, c.factory, kinds[k]));

        BackendRun detailed = medianOf(std::move(samples[0]));
        detailed.speedup = 1.0;
        for (int k = 0; k < 3; ++k) {
            BackendRun r = k == 0 ? detailed
                                  : medianOf(std::move(samples[k]));
            if (k > 0) {
                r.errorPct = driver::percentError(
                    static_cast<double>(r.cycles),
                    static_cast<double>(detailed.cycles));
                r.speedup = r.wallSeconds > 0
                                ? detailed.wallSeconds / r.wallSeconds
                                : 0.0;
                r.errorBoundPct =
                    k == 1 ? c.intervalErrBound : c.autoErrBound;
                r.minSpeedup =
                    k == 1 ? c.intervalMinSpeedup : c.autoMinSpeedup;
                if (r.errorBoundPct > 0 && r.errorPct > r.errorBoundPct) {
                    std::fprintf(stderr,
                                 "FAIL: %s/%s error %.2f%% exceeds the "
                                 "stated bound %.2f%%\n",
                                 r.workload.c_str(), r.backend.c_str(),
                                 r.errorPct, r.errorBoundPct);
                    ok = false;
                }
                if (r.minSpeedup > 0 && r.speedup < r.minSpeedup) {
                    std::fprintf(stderr,
                                 "FAIL: %s/%s speedup %.2fx below the "
                                 "stated minimum %.2fx\n",
                                 r.workload.c_str(), r.backend.c_str(),
                                 r.speedup, r.minSpeedup);
                    ok = false;
                }
            }
            table.addRow({r.workload, r.backend,
                          std::to_string(r.cycles),
                          driver::Table::num(r.wallSeconds, 3),
                          driver::Table::num(r.errorPct),
                          driver::Table::num(r.speedup),
                          std::to_string(r.latchedKernels)});
            rows.push_back(r);
        }
        // Auto mode must actually have switched on the iterative
        // workload — otherwise it is just detailed with overhead.
        const BackendRun &auto_run = rows.back();
        if (std::string(c.name) == "pagerank" &&
            auto_run.intervalLaunches == 0) {
            std::fprintf(stderr,
                         "FAIL: auto never switched on pagerank\n");
            ok = false;
        }
    }
    table.print(std::cout);
    std::printf(
        "\ninterval trades accuracy for speed (no event loop; spmv's\n"
        "bound is wide because DRAM contention dominates it); auto\n"
        "keeps errors tight by switching only once launch durations\n"
        "prove stable, so its win grows with iteration count.\n");

    writeJson(rows, "BENCH_backend.json");
    return ok ? 0 : 1;
}
