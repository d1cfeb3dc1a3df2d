/**
 * @file
 * Benchmark entry point:
 *
 *   perfbench --workload sampled|unsampled|sweep|photond --seed N
 *             --seconds S --trace 0|1 [--out-dir DIR]
 *
 * Prints every metric by name with its unit, then, as the last line, one
 * JSON object {"correct", "attempted", "failed", "metrics"}. With
 * --trace 0 the metrics are the end-to-end set; with --trace 1 the
 * traced run's per-layer set (spans go to DIR/spans_<workload>.jsonl).
 */

#include <malloc.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "harness.hpp"

namespace perfbench {

namespace {

/** A metric's name and unit, as BENCHMARK.json lists it. */
struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics: every workload reports all of them. */
const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s"},      {"photon_s", "s"}, {"full_s", "s"},
        {"error_factor", "x"}, {"wall_s", "s"},   {"p50_ms", "ms"},
        {"tail_ms", "ms"},     {"peak_rss_mb", "MB"},
    };
    return defs;
}

/** Per-layer metrics of the traced run (0 where a layer is idle). */
const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"workloads.setup_s", "s"},
        {"func.trace_key_s", "s"},
        {"func.capture_s", "s"},
        {"func.capture_insts", "count"},
        {"func.trace_bytes", "bytes"},
        {"func.apply_stores_s", "s"},
        {"timing.detailed_s", "s"},
        {"timing.detailed_cycles_per_s", "1/s"},
        {"timing.interval_s", "s"},
        {"timing.cycles", "count"},
        {"timing.insts", "count"},
        {"timing.l1v_hit_rate", "ratio"},
        {"timing.l2_hit_rate", "ratio"},
        {"timing.dram_accesses", "count"},
        {"sampling.analysis_s", "s"},
        {"sampling.analysis_insts", "count"},
        {"sampling.level_full", "count"},
        {"sampling.level_warp", "count"},
        {"sampling.level_bb", "count"},
        {"sampling.level_kernel", "count"},
        {"sampling.detailed_fraction", "ratio"},
        {"sampling.resident_at_switch", "count"},
        {"sampling.fallback_overhead_s", "s"},
        {"sampling.kernel_cache_hits", "count"},
        {"sampling.error_pct", "%"},
        {"driver.launch_p50_ms", "ms"},
        {"driver.launch_tail_ms", "ms"},
        {"driver.launch_count", "count"},
        {"service.job_p50_s", "s"},
        {"service.job_tail_s", "s"},
        {"service.worker_busy_frac", "ratio"},
        {"service.steal_ops", "count"},
        {"service.trace_hit_ratio", "ratio"},
        {"service.kernel_hits", "count"},
        {"service.artifact_save_s", "s"},
        {"service.artifact_load_s", "s"},
        {"service.artifact_bytes", "bytes"},
        {"service.cold_s", "s"},
        {"service.warm_s", "s"},
        {"serve.exec_p50_ms", "ms"},
        {"serve.exec_tail_ms", "ms"},
        {"serve.wait_p50_ms", "ms"},
        {"serve.wait_tail_ms", "ms"},
        {"serve.dedup_ratio", "ratio"},
        {"serve.cache_served_ratio", "ratio"},
        {"serve.generator_lag_ms", "ms"},
        {"self.workloads_s", "s"},
        {"self.func_s", "s"},
        {"self.timing_s", "s"},
        {"self.sampling_s", "s"},
        {"self.driver_s", "s"},
        {"self.service_s", "s"},
        {"self.serve_s", "s"},
        {"trace.overhead_s", "s"},
        {"trace.spans", "count"},
    };
    return defs;
}

} // namespace

void
Result::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        std::cerr << "perfbench: FAILED check: " << what << "\n";
    }
}

void
setPercentiles(Result &res, const std::string &p50_name,
               const std::string &tail_name,
               const std::vector<double> &samples_s, double scale,
               const std::string &what)
{
    Percentiles p = percentiles(samples_s);
    res.set(p50_name, p.p50 * scale);
    res.set(tail_name, p.tail * scale);
    std::ostringstream os;
    os << what << ": p50 " << p.p50 * scale << ", p" << p.tailPct << " "
       << p.tail * scale << " over " << p.count << " samples";
    res.note(os.str());
}

void
setSamplingCounts(Result &res,
                  const std::vector<photon::sampling::KernelTelemetry> &t)
{
    using photon::sampling::SampleLevel;
    double detailed = 0, total = 0, resident = 0, switched = 0;
    for (const auto &k : t) {
        switch (k.level) {
          case SampleLevel::Full: res.add("sampling.level_full", 1); break;
          case SampleLevel::Warp: res.add("sampling.level_warp", 1); break;
          case SampleLevel::BasicBlock:
            res.add("sampling.level_bb", 1);
            break;
          case SampleLevel::Kernel:
            res.add("sampling.level_kernel", 1);
            break;
        }
        detailed += k.detailedWarps;
        total += k.totalWarps;
        if (k.level == SampleLevel::Warp ||
            k.level == SampleLevel::BasicBlock) {
            resident += k.residentAtSwitch;
            ++switched;
        }
    }
    res.set("sampling.detailed_fraction", total > 0 ? detailed / total : 0);
    res.set("sampling.resident_at_switch",
            switched > 0 ? resident / switched : 0);
}

void
finishTrace(const Tracer &tracer, const Options &opt, Result &res)
{
    for (const auto &[layer, self] : tracer.layerSelfTimes())
        if (layer != "bench")
            res.set("self." + layer + "_s", self);
    const std::vector<SpanRecord> spans = tracer.spans();
    res.set("trace.spans", static_cast<double>(spans.size()));
    const std::string path = opt.outDir + "/spans_" + opt.workload +
                             ".jsonl";
    std::ofstream f(path);
    tracer.write(f);
    res.check(static_cast<bool>(f), "span file " + path + " written");
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace perfbench

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload "
                 "sampled|unsampled|sweep|photond --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR]\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    // One malloc arena: peak_rss_mb then counts the simulator's live
    // memory, not how many per-thread arenas the thread schedule of a
    // run happened to create (which varied photond's figure by 25%).
    mallopt(M_ARENA_MAX, 1);
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            opt.workload = v;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end)
                usage("--seed takes a whole number");
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end || !(opt.seconds > 0))
                usage("--seconds takes a positive number");
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            opt.trace = v == "1";
        } else if (a == "--out-dir") {
            opt.outDir = v;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }

    Result res;
    if (opt.workload == "sampled" || opt.workload == "unsampled")
        runKernelPairs(opt, opt.workload == "sampled", res);
    else if (opt.workload == "sweep")
        runSweep(opt, res);
    else if (opt.workload == "photond")
        runPhotond(opt, res);
    else
        usage("--workload must be sampled, unsampled, sweep or photond");

    std::cout << "workload " << opt.workload << ", seed " << opt.seed
              << ", " << opt.seconds << " s, trace " << opt.trace
              << "\n";
    for (const std::string &line : res.notes)
        std::cout << "  " << line << "\n";

    const std::vector<MetricDef> &defs =
        opt.trace ? perLayerMetrics() : endToEndMetrics();
    if (!opt.trace)
        for (const MetricDef &d : defs)
            res.check(res.metrics.count(d.name) &&
                          std::isfinite(res.metrics[d.name]) &&
                          res.metrics[d.name] > 0,
                      std::string("end-to-end metric ") + d.name +
                          " measured");
    std::ostringstream json;
    json.precision(17);
    json << "{\"correct\": " << (res.failed == 0 ? "true" : "false")
         << ", \"attempted\": " << res.attempted
         << ", \"failed\": " << res.failed << ", \"metrics\": {";
    bool first = true;
    for (const MetricDef &d : defs) {
        double v = 0.0;
        if (auto it = res.metrics.find(d.name); it != res.metrics.end())
            v = it->second;
        if (!std::isfinite(v))
            v = 0.0;
        std::printf("%-30s %.6g %s\n", d.name, v, d.unit);
        json << (first ? "" : ", ") << "\"" << d.name
             << "\": {\"value\": " << v << ", \"unit\": \"" << d.unit
             << "\"}";
        first = false;
    }
    json << "}}";
    std::cout << json.str() << std::endl;
    return 0;
}
