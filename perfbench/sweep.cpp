/**
 * @file
 * The `sweep` workload: a 28-job design-space-exploration campaign
 * through service::runCampaign at 4 workers (ordered share, trace reuse
 * on), saved with saveArtifact, reloaded with loadArtifact and rerun
 * warm against the reloaded store.
 */

#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "harness.hpp"
#include "service/artifact_store.hpp"
#include "service/campaign_runner.hpp"

namespace perfbench {

using namespace photon;

namespace {

constexpr std::uint32_t kWorkers = 4;

/**
 * Full-mode jobs {mm, pagerank, spmv, sc} x {r9nano, mi100} x backend
 * {detailed, interval, auto}, plus Photon resnet18 -> resnet34 chains on
 * both GPUs. The campaign API builds workloads by name with the
 * library's fixed generator seeds, so no seed reaches this workload.
 */
std::vector<service::JobSpec>
sweepJobs()
{
    std::vector<service::JobSpec> full;
    for (const char *gpu : {"r9nano", "mi100"})
        for (auto [wl, size] :
             {std::pair{"mm", 128u}, std::pair{"pagerank", 16384u},
              std::pair{"spmv", 1024u}, std::pair{"sc", 8192u}})
            for (const char *be : {"detailed", "interval", "auto"})
                full.push_back({wl, size, "full", gpu, be});

    std::vector<service::JobSpec> jobs;
    for (const char *gpu : {"r9nano", "mi100"})
        for (const char *net : {"resnet18", "resnet34"})
            jobs.push_back({net, 0, "photon", gpu, "detailed"});
    jobs.insert(jobs.end(), full.begin(), full.end());
    return jobs;
}

struct PassOut
{
    service::CampaignResult cold, warm;
    double saveSeconds = 0.0;
    double loadSeconds = 0.0;
    double artifactBytes = 0.0;
    double wall = 0.0;
};

PassOut
runPass(const std::vector<service::JobSpec> &jobs, const Options &opt,
        Tracer *tracer, Result &res)
{
    service::CampaignOptions co;
    co.workers = kWorkers;
    co.share = service::SharePolicy::Ordered;
    co.traceReuse = true;

    PassOut out;
    const std::string path = opt.outDir + "/sweep_store.bin";
    Span ps(tracer, "bench.pass", "", -1);
    auto t0 = std::chrono::steady_clock::now();
    {
        Span s(tracer, "service.campaign", "cold", ps.id());
        out.cold = service::runCampaign(jobs, co);
    }
    {
        Span s(tracer, "service.artifact_save", "cold", ps.id());
        auto t = std::chrono::steady_clock::now();
        service::LoadStatus st = service::saveArtifact(out.cold.finalStore,
                                                       path);
        out.saveSeconds = secondsSince(t);
        res.check(st.ok, "saveArtifact: " + st.error);
    }
    // The stores are not needed past this point; dropping them keeps
    // peak_rss_mb about the simulator, not about passes kept for checks.
    out.cold.finalStore = {};
    service::Artifact loaded;
    {
        Span s(tracer, "service.artifact_load", "warm", ps.id());
        auto t = std::chrono::steady_clock::now();
        service::LoadStatus st = service::loadArtifact(path, loaded);
        out.loadSeconds = secondsSince(t);
        res.check(st.ok, "loadArtifact: " + st.error);
    }
    if (FILE *f = std::fopen(path.c_str(), "rb")) {
        std::fseek(f, 0, SEEK_END);
        out.artifactBytes = static_cast<double>(std::ftell(f));
        std::fclose(f);
    }
    std::remove(path.c_str());
    {
        Span s(tracer, "service.campaign", "warm", ps.id());
        out.warm = service::runCampaign(jobs, co, std::move(loaded));
    }
    out.warm.finalStore = {};
    out.wall = secondsSince(t0);
    return out;
}

void
checkPass(const PassOut &p, const PassOut &first, Result &res)
{
    for (std::size_t i = 0; i < p.cold.jobs.size(); ++i) {
        const service::JobResult &c = p.cold.jobs[i];
        const service::JobResult &w = p.warm.jobs[i];
        const std::string label = c.spec.label();
        res.check(c.cycles == first.cold.jobs[i].cycles &&
                      c.insts == first.cold.jobs[i].insts,
                  label + ": cold cycles and insts repeat");
        res.check(w.cycles == first.warm.jobs[i].cycles &&
                      w.insts == first.warm.jobs[i].insts,
                  label + ": warm cycles and insts repeat");
        // Full-mode jobs replay the reloaded traces: bit-identical.
        if (c.spec.mode == "full")
            res.check(w.cycles == c.cycles && w.insts == c.insts,
                      label + ": warm replay matches cold");
    }
}

/** Telemetry wall seconds of the cold jobs selected by @p pick. */
template <typename Pick>
double
launchSeconds(const service::CampaignResult &r, Pick pick)
{
    double s = 0.0;
    for (const service::JobResult &j : r.jobs)
        if (pick(j.spec))
            for (const auto &t : j.telemetry)
                s += t.wallSeconds;
    return s;
}

/** Largest error of an interval/auto job against the detailed job of
 *  the same workload and GPU; also checks their insts agree. */
double
backendError(const service::CampaignResult &r, Result &res,
             double *worst_pct)
{
    std::map<std::tuple<std::string, std::uint32_t, std::string>,
             const service::JobResult *>
        detailed;
    for (const service::JobResult &j : r.jobs)
        if (j.spec.mode == "full" && j.spec.backend == "detailed")
            detailed[{j.spec.workload, j.spec.size, j.spec.gpu}] = &j;
    double factor = 0.0;
    *worst_pct = 0.0;
    for (const service::JobResult &j : r.jobs) {
        if (j.spec.mode != "full" || j.spec.backend == "detailed")
            continue;
        const service::JobResult *ref =
            detailed.at({j.spec.workload, j.spec.size, j.spec.gpu});
        res.check(j.insts == ref->insts,
                  j.spec.label() + ": insts match the detailed backend");
        factor = std::max(factor, errorFactor(j.cycles, ref->cycles));
        *worst_pct = std::max(*worst_pct, errorPct(j.cycles, ref->cycles));
    }
    return factor;
}

std::vector<double>
jobWalls(const service::CampaignResult &r)
{
    std::vector<double> v;
    for (const service::JobResult &j : r.jobs)
        v.push_back(j.wallSeconds);
    return v;
}

} // namespace

void
runSweep(const Options &opt, Result &res)
{
    const std::vector<service::JobSpec> jobs = sweepJobs();
    auto is_photon = [](const service::JobSpec &s) {
        return s.mode == "photon";
    };
    auto is_detailed = [](const service::JobSpec &s) {
        return s.mode == "full" && s.backend == "detailed";
    };

    // Set-up: factory + Workload::setup of each distinct workload the
    // campaign's jobs build, several times.
    std::set<std::pair<std::string, std::uint32_t>> distinct;
    for (const service::JobSpec &j : jobs)
        distinct.insert({j.workload, j.size});
    std::vector<double> setups;
    for (int k = 0; k < kSetupReps; ++k) {
        double s = 0.0;
        for (const auto &[name, size] : distinct) {
            driver::Platform p(GpuConfig::r9Nano(),
                               driver::SimMode::FullDetailed);
            auto t0 = std::chrono::steady_clock::now();
            workloads::WorkloadPtr w =
                service::makeWorkload(name, size);
            w->setup(p);
            s += secondsSince(t0);
        }
        setups.push_back(s);
    }

    if (!opt.trace) {
        const int passes = passCount(opt, 4.0);
        std::vector<PassOut> outs;
        std::vector<double> photon_s, full_s, wall_s, job_s;
        for (int p = 0; p < passes; ++p) {
            outs.push_back(runPass(jobs, opt, nullptr, res));
            const PassOut &o = outs.back();
            checkPass(o, outs.front(), res);
            photon_s.push_back(launchSeconds(o.cold, is_photon));
            full_s.push_back(launchSeconds(o.cold, is_detailed));
            wall_s.push_back(o.wall);
            for (const auto *r : {&o.cold, &o.warm}) {
                std::vector<double> w = jobWalls(*r);
                job_s.insert(job_s.end(), w.begin(), w.end());
            }
            std::ostringstream os;
            os << "pass " << p << ": cold " << o.cold.wallSeconds
               << " s, save " << o.saveSeconds << " s, load "
               << o.loadSeconds << " s, warm " << o.warm.wallSeconds
               << " s, store " << o.artifactBytes / 1e6 << " MB";
            res.note(os.str());
        }
        double worst_pct = 0.0;
        res.set("error_factor", backendError(outs.front().cold, res,
                                             &worst_pct));
        res.note("largest backend error " + std::to_string(worst_pct) +
                 "% against detailed");
        res.set("setup_s", median(setups));
        res.set("photon_s", median(photon_s));
        res.set("full_s", median(full_s));
        res.set("wall_s", median(wall_s));
        setPercentiles(res, "p50_ms", "tail_ms", job_s, 1e3,
                       "campaign job wall (ms)");
        res.set("peak_rss_mb", peakRssMb());
        return;
    }

    // A traced pass between two untraced ones (the overhead is the
    // difference to their mean).
    Tracer tracer;
    const PassOut before = runPass(jobs, opt, nullptr, res);
    const PassOut traced = runPass(jobs, opt, &tracer, res);
    const PassOut after = runPass(jobs, opt, nullptr, res);
    checkPass(before, before, res);
    checkPass(traced, before, res);
    checkPass(after, before, res);
    res.set("trace.overhead_s",
            traced.wall - 0.5 * (before.wall + after.wall));
    res.set("workloads.setup_s", median(setups));

    std::vector<double> job_s, launches;
    std::vector<sampling::KernelTelemetry> photon_tele;
    double steals = 0, trace_hits = 0, trace_lookups = 0, kernel_hits = 0;
    for (const auto *r : {&traced.cold, &traced.warm}) {
        std::vector<double> w = jobWalls(*r);
        job_s.insert(job_s.end(), w.begin(), w.end());
        steals += static_cast<double>(r->stealOps);
        for (const service::JobResult &j : r->jobs) {
            trace_hits += static_cast<double>(j.traceHits);
            trace_lookups += static_cast<double>(j.traceHits + j.traceMisses);
            kernel_hits += j.kernelHits();
            for (const auto &t : j.telemetry)
                launches.push_back(t.wallSeconds);
        }
    }
    for (const service::JobResult &j : traced.cold.jobs)
        if (j.spec.mode == "photon")
            photon_tele.insert(photon_tele.end(), j.telemetry.begin(),
                               j.telemetry.end());
    setPercentiles(res, "service.job_p50_s", "service.job_tail_s", job_s,
                   1.0, "campaign job wall (s)");
    res.set("service.worker_busy_frac",
            busyFraction(jobWalls(traced.cold), kWorkers,
                         traced.cold.wallSeconds));
    res.set("service.steal_ops", steals);
    res.set("service.trace_hit_ratio",
            trace_lookups > 0 ? trace_hits / trace_lookups : 0.0);
    res.set("service.kernel_hits", kernel_hits);
    res.set("service.artifact_save_s", traced.saveSeconds);
    res.set("service.artifact_load_s", traced.loadSeconds);
    res.set("service.artifact_bytes", traced.artifactBytes);
    res.set("service.cold_s", traced.cold.wallSeconds);
    res.set("service.warm_s", traced.loadSeconds + traced.warm.wallSeconds);
    setPercentiles(res, "driver.launch_p50_ms", "driver.launch_tail_ms",
                   launches, 1e3, "launch wall from telemetry (ms)");
    res.set("driver.launch_count", static_cast<double>(launches.size()));
    setSamplingCounts(res, photon_tele);
    double cache_hits = 0;
    for (const service::JobResult &j : traced.cold.jobs)
        cache_hits += static_cast<double>(j.cacheHits);
    res.set("sampling.kernel_cache_hits", cache_hits);
    double worst_pct = 0.0;
    backendError(traced.cold, res, &worst_pct);
    res.set("sampling.error_pct", worst_pct);

    // Decompose the detailed jobs (one per workload and GPU).
    std::vector<DecompJob> djobs;
    for (const service::JobResult &j : traced.cold.jobs) {
        if (!is_detailed(j.spec))
            continue;
        GpuConfig gpu;
        service::parseGpuName(j.spec.gpu, gpu);
        const service::JobSpec spec = j.spec;
        djobs.push_back({spec.label(), gpu,
                         [spec] {
                             return service::makeWorkload(spec.workload,
                                                          spec.size);
                         },
                         j.cycles, j.insts});
    }
    decompose(djobs, tracer, -1, res);
    finishTrace(tracer, opt, res);
}

} // namespace perfbench
