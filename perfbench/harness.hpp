/**
 * @file
 * Shared plumbing of the benchmark: options, the result every workload
 * fills (metrics, checks), and the canonical metric lists that
 * BENCHMARK.json names.
 */

#ifndef PERFBENCH_HARNESS_HPP
#define PERFBENCH_HARNESS_HPP

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "driver/platform.hpp"
#include "sim/config.hpp"
#include "tracer.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    std::string outDir = ".";
};

/** What one run measured and checked. */
struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, double> metrics;
    /** Human-readable lines printed before the JSON result. */
    std::vector<std::string> notes;

    /** Count one checked operation; a failure is reported on stderr. */
    void check(bool ok, const std::string &what);
    void note(const std::string &line) { notes.push_back(line); }
    void set(const std::string &name, double v) { metrics[name] = v; }
    void add(const std::string &name, double v) { metrics[name] += v; }
};

inline double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** Set-ups a run times; setup_s is their median. */
constexpr int kSetupReps = 11;

/** Passes a run makes: as many nominal-length passes as fit in
 *  --seconds (at least one). Fixed for given --seconds, so percentile
 *  sample counts do not vary between runs. */
inline int
passCount(const Options &opt, double nominal_pass_s)
{
    int n = static_cast<int>(opt.seconds / nominal_pass_s);
    return n < 1 ? 1 : n;
}

/** A job of the traced decomposition: one workload on one GPU. */
struct DecompJob
{
    std::string label;
    photon::GpuConfig gpu;
    std::function<photon::workloads::WorkloadPtr()> make;
    /** Full-mode cycles/insts the pass measured for this job; the
     *  decomposed detailed replay must reproduce them exactly. */
    photon::Cycle expectCycles = 0;
    std::uint64_t expectInsts = 0;
};

/**
 * The traced decomposition (per launch, across identically set-up
 * Platforms): traceKey -> captureLaunchTrace -> detailed replay on the
 * first, analyzeKernel -> applyAllStores on the second, applyAllStores
 * -> interval replay on the third. Fills func.*, timing.* and
 * sampling.analysis_* layer metrics and checks cycle parity.
 */
void decompose(const std::vector<DecompJob> &jobs, Tracer &tracer,
               std::int64_t parent, Result &res);

/** Median and tail (stats.hpp rule) of @p samples_s, times @p scale,
 *  into two metrics; the percentile and sample count go to the notes. */
void setPercentiles(Result &res, const std::string &p50_name,
                    const std::string &tail_name,
                    const std::vector<double> &samples_s, double scale,
                    const std::string &what);

/** Photon telemetry counts (levels, detailed fraction, resident at
 *  switch) into sampling.* layer metrics. */
void setSamplingCounts(
    Result &res, const std::vector<photon::sampling::KernelTelemetry> &t);

/** Per-layer self times and the span count into the result; spans are
 *  written to <out-dir>/spans_<workload>.jsonl. */
void finishTrace(const Tracer &tracer, const Options &opt, Result &res);

/** Host peak resident set size, MB. */
double peakRssMb();

// ----- Workloads -----
void runKernelPairs(const Options &opt, bool sampled, Result &res);
void runSweep(const Options &opt, Result &res);
void runPhotond(const Options &opt, Result &res);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HPP
