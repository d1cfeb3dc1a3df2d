/**
 * @file
 * Campaign descriptions: a campaign is a batch of simulation jobs
 * (workload x size x mode x GPU), read from a spec file or expanded from
 * comma-separated CLI lists, plus the per-job/aggregate result records
 * and the JSON / table report renderers.
 *
 * Spec file format, one job per line, later fields optional:
 *
 *   # workload  size  mode     gpu      backend
 *   mm          256   photon   r9nano
 *   resnet18    0     photon   mi100
 *   relu        4096                    # defaults: photon r9nano
 *   spmv        1024  full     r9nano   interval
 */

#ifndef PHOTON_SERVICE_CAMPAIGN_HPP
#define PHOTON_SERVICE_CAMPAIGN_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "driver/platform.hpp"
#include "service/artifact_store.hpp"
#include "workloads/workload.hpp"

namespace photon::service {

/** One simulation job of a campaign. */
struct JobSpec
{
    std::string workload = "mm";
    std::uint32_t size = 0; ///< workload-specific default when 0
    std::string mode = "photon";
    std::string gpu = "r9nano";
    /** Timing backend ("detailed"/"interval"/"auto"); non-detailed
     *  backends require mode "full" (see driver::Platform). */
    std::string backend = "detailed";

    /** "workload/size/mode/gpu", used in reports and logs; a
     *  non-default backend is appended as a fifth component so labels
     *  of pre-backend specs (and everything keyed on them — learned
     *  fingerprints, artifact groups) are byte-identical to before. */
    std::string label() const;

    bool
    operator==(const JobSpec &o) const
    {
        return workload == o.workload && size == o.size &&
               mode == o.mode && gpu == o.gpu && backend == o.backend;
    }
};

// ----- Shared factories (photon_sim and the runner use the same set) -----

/** All workload names accepted by makeWorkload (resnetN spelled out). */
const std::vector<std::string> &workloadNames();

/** Build a workload; empty result + @p error set on unknown name or a
 *  malformed resnet depth. @p size 0 selects the workload default. */
workloads::WorkloadPtr makeWorkload(const std::string &name,
                                    std::uint32_t size,
                                    std::string *error = nullptr);

/** Parse a mode name; @p error set on failure ("full photon pka"). */
bool parseMode(const std::string &name, driver::SimMode &out,
               std::string *error = nullptr);

/** Parse a GPU name; @p error set on failure ("r9nano mi100 tiny"). */
bool parseGpuName(const std::string &name, GpuConfig &out,
                  std::string *error = nullptr);

/** Parse a timing-backend name; @p error set on failure
 *  ("detailed interval auto"). */
bool parseBackendName(const std::string &name, timing::BackendKind &out,
                      std::string *error = nullptr);

/** Check every field of @p spec; returns a diagnostic or "". */
std::string validateJob(const JobSpec &spec);

// ----- Campaign construction -----

/** Parse a spec file; returns a diagnostic (with line number) or "". */
std::string parseCampaignFile(const std::string &path,
                              std::vector<JobSpec> &out);

/** Parse spec lines from a stream (see file header for the format). */
std::string parseCampaignText(std::istream &in, std::vector<JobSpec> &out);

/** Cross-product expansion of CLI lists ("mm,relu" x "128,256" x ...).
 *  Empty @p sizes means {0} (workload defaults); empty @p backends
 *  means {"detailed"}. */
std::vector<JobSpec> expandJobs(const std::vector<std::string> &workloads,
                                const std::vector<std::uint32_t> &sizes,
                                const std::vector<std::string> &modes,
                                const std::vector<std::string> &gpus,
                                const std::vector<std::string> &backends =
                                    {});

/** Split a comma-separated CLI list ("a,b,c"); empty items dropped. */
std::vector<std::string> splitList(const std::string &csv);

/** Strict decimal uint32 parse; false on junk, overflow or empty. */
bool parseUint(const std::string &text, std::uint32_t &out);

// ----- Results -----

/** Per-sample-level launch counts, indexed by sampling::SampleLevel. */
inline constexpr std::size_t kNumSampleLevels = 4;

/** Measurements of one finished job. */
struct JobResult
{
    JobSpec spec;
    Cycle cycles = 0;        ///< sum of predicted kernel cycles
    std::uint64_t insts = 0; ///< sum of predicted instruction counts
    double wallSeconds = 0.0;
    std::uint32_t kernels = 0; ///< launches simulated
    std::uint32_t levelCounts[kNumSampleLevels] = {};
    std::uint64_t analysisInsts = 0; ///< online-analysis work performed
    std::size_t seedRecords = 0; ///< kernel records imported at start
    std::size_t newRecords = 0;  ///< kernel records this job published
    /** Kernel-cache counter deltas for this job (seeding excluded). */
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t cacheInserts = 0;
    /** Functional-trace reuse (DESIGN.md §15): launches replayed from
     *  the campaign's shared TraceStore vs. captured fresh by this
     *  job. hits + captures < kernels is normal — sampled modes only
     *  consume, Photon looks up only launches its kernel cache and a
     *  reused analysis do not answer, and non-traceable launches
     *  bypass the store. */
    std::uint64_t traceHits = 0;
    std::uint64_t traceMisses = 0;
    std::uint64_t traceCaptures = 0;
    /** Per-launch telemetry records (the telemetry spine), in launch
     *  order, with .job set to the campaign job label. */
    std::vector<sampling::KernelTelemetry> telemetry;

    /** Launches short-circuited by kernel-sampling. */
    std::uint32_t
    kernelHits() const
    {
        return levelCounts[static_cast<int>(
            sampling::SampleLevel::Kernel)];
    }
};

/** A whole campaign's outcome. */
struct CampaignResult
{
    std::vector<JobResult> jobs;
    double wallSeconds = 0.0; ///< end-to-end campaign wall time
    std::uint32_t workers = 1;
    std::string share;     ///< share-policy name the campaign ran with
    Artifact finalStore;   ///< merged store (seed + everything published)
    /** Work-stealing scheduler observability: whether rebalancing was
     *  enabled and how much actually happened (0 steals on a balanced
     *  batch is normal — stealing only fires when a lane runs dry). */
    bool stealing = true;
    std::uint64_t stealOps = 0;
    std::uint64_t stolenTasks = 0;

    Cycle totalCycles() const;
    std::uint64_t totalInsts() const;
    std::uint32_t totalKernelHits() const;

    /** All jobs' telemetry records concatenated, in job order. */
    std::vector<sampling::KernelTelemetry> allTelemetry() const;
};

/** Write the aggregate report as JSON. */
void writeJsonReport(const CampaignResult &result, std::ostream &os);

/** Render the per-job summary as an aligned text table (or CSV). */
void printCampaignTable(const CampaignResult &result, std::ostream &os,
                        bool csv = false);

} // namespace photon::service

#endif // PHOTON_SERVICE_CAMPAIGN_HPP
