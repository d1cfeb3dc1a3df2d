/**
 * @file
 * The `sampled` and `unsampled` workloads: each kernel set is run under
 * Photon and then at full detail on the same inputs, serially on
 * r9nano, one fresh Platform per job (so simulated caches start empty).
 */

#include <sstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workloads/dnn/network.hpp"

namespace perfbench {

using namespace photon;

namespace {

struct KernelJob
{
    std::string label;
    std::function<workloads::WorkloadPtr()> make;
};

/**
 * `sampled` covers every Photon level: relu and sc switch at the warp
 * level, fir-32768 at the bb level, and resnet18's 67 launches are 17
 * full-detail runs plus 50 kernel-cache hits. `unsampled` holds kernels
 * on which Photon falls back to full detail; fir at half the `sampled`
 * size shows the size-dependent decision. Only spmv has a generated
 * input, and the seed reaches it alone.
 */
std::vector<KernelJob>
kernelJobs(bool sampled, std::uint64_t seed)
{
    using namespace workloads;
    if (sampled)
        return {
            {"relu-65536", [] { return makeRelu(65536); }},
            {"sc-32768", [] { return makeSc(32768); }},
            {"fir-32768", [] { return makeFir(32768); }},
            {"resnet18", [] { return dnn::makeResnet(18); }},
        };
    return {
        {"spmv-1024", [seed] { return makeSpmv(1024 * 64, 64, seed); }},
        {"mm-256", [] { return makeMm(256); }},
        {"aes-4096", [] { return makeAes(4096); }},
        {"fir-16384", [] { return makeFir(16384); }},
    };
}

/** One job under one mode. */
struct ModeRun
{
    Cycle cycles = 0;
    std::uint64_t insts = 0;
    double launchSeconds = 0.0; ///< sum over Platform::launch calls
    double setupSeconds = 0.0;  ///< factory + Workload::setup
    std::vector<double> launchWalls;
    std::vector<sampling::KernelTelemetry> telemetry;
    std::uint64_t cacheHits = 0;
};

ModeRun
runMode(const KernelJob &job, driver::SimMode mode, Tracer *tracer,
        std::int64_t parent, Result &res)
{
    ModeRun out;
    driver::Platform platform(GpuConfig::r9Nano(), mode);
    const std::string id = job.label + "/" + driver::simModeName(mode);
    Span js(tracer, "bench.job", id, parent);
    workloads::WorkloadPtr w;
    {
        Span s(tracer, "workloads.setup", id, js.id());
        auto t0 = std::chrono::steady_clock::now();
        w = job.make();
        w->setup(platform);
        out.setupSeconds = secondsSince(t0);
    }
    for (const workloads::LaunchSpec &l : w->launches()) {
        Span s(tracer, "driver.launch", id, js.id());
        driver::LaunchResult r =
            platform.launch(l.program, l.numWorkgroups,
                            l.wavesPerWorkgroup, l.kernarg, l.label);
        out.launchWalls.push_back(r.wallSeconds);
        out.launchSeconds += r.wallSeconds;
    }
    out.cycles = platform.totalKernelCycles();
    out.insts = platform.totalInsts();
    out.telemetry = platform.telemetry();
    if (mode == driver::SimMode::FullDetailed)
        res.check(w->check(platform),
                  id + ": output matches the host reference");
    if (sampling::PhotonSampler *ph = platform.photon())
        out.cacheHits = ph->cache().counters().hits;
    return out;
}

struct PassOut
{
    double wall = 0.0;
    double photonSeconds = 0.0;
    double fullSeconds = 0.0;
    double setupSeconds = 0.0;
    std::vector<ModeRun> photon, full;
};

PassOut
runPass(const std::vector<KernelJob> &jobs, Tracer *tracer, Result &res)
{
    PassOut out;
    Span ps(tracer, "bench.pass", "", -1);
    auto t0 = std::chrono::steady_clock::now();
    for (const KernelJob &job : jobs) {
        out.photon.push_back(
            runMode(job, driver::SimMode::Photon, tracer, ps.id(), res));
        out.full.push_back(runMode(job, driver::SimMode::FullDetailed,
                                   tracer, ps.id(), res));
        out.photonSeconds += out.photon.back().launchSeconds;
        out.fullSeconds += out.full.back().launchSeconds;
        out.setupSeconds += out.photon.back().setupSeconds +
                            out.full.back().setupSeconds;
    }
    out.wall = secondsSince(t0);
    return out;
}

/** Every job's simulated cycles and insts repeat exactly. */
void
checkRepeat(const std::vector<KernelJob> &jobs, const PassOut &a,
            const PassOut &b, Result &res)
{
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        res.check(a.photon[j].cycles == b.photon[j].cycles &&
                      a.photon[j].insts == b.photon[j].insts,
                  jobs[j].label + "/photon: cycles and insts repeat");
        res.check(a.full[j].cycles == b.full[j].cycles &&
                      a.full[j].insts == b.full[j].insts,
                  jobs[j].label + "/full: cycles and insts repeat");
    }
}

std::string
levelSummary(const std::vector<sampling::KernelTelemetry> &t)
{
    std::map<std::string, int> n;
    for (const auto &k : t)
        ++n[sampling::sampleLevelName(k.level)];
    std::string s;
    for (const auto &[level, count] : n)
        s += (s.empty() ? "" : "+") + std::to_string(count) + level;
    return s;
}

} // namespace

void
runKernelPairs(const Options &opt, bool sampled, Result &res)
{
    const std::vector<KernelJob> jobs = kernelJobs(sampled, opt.seed);

    // Set-up: factory + Workload::setup of every job, several times.
    std::vector<double> setups;
    for (int k = 0; k < kSetupReps; ++k) {
        double s = 0.0;
        for (const KernelJob &job : jobs) {
            driver::Platform p(GpuConfig::r9Nano(), driver::SimMode::Photon);
            auto t0 = std::chrono::steady_clock::now();
            workloads::WorkloadPtr w = job.make();
            w->setup(p);
            s += secondsSince(t0);
        }
        setups.push_back(s);
    }

    if (!opt.trace) {
        const int passes = passCount(opt, sampled ? 7.0 : 4.5);
        std::vector<PassOut> outs;
        for (int p = 0; p < passes; ++p) {
            outs.push_back(runPass(jobs, nullptr, res));
            if (p > 0)
                checkRepeat(jobs, outs.front(), outs.back(), res);
            std::ostringstream os;
            os << "pass " << p << ": photon " << outs.back().photonSeconds
               << " s, full " << outs.back().fullSeconds << " s, wall "
               << outs.back().wall << " s";
            res.note(os.str());
        }
        std::vector<double> photon_s, full_s, wall_s, launches;
        for (const PassOut &o : outs) {
            photon_s.push_back(o.photonSeconds);
            full_s.push_back(o.fullSeconds);
            wall_s.push_back(o.wall);
            for (const auto *runs : {&o.photon, &o.full})
                for (const ModeRun &r : *runs)
                    launches.insert(launches.end(), r.launchWalls.begin(),
                                    r.launchWalls.end());
        }
        const PassOut &o = outs.front();
        double factor = 0.0;
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            factor = std::max(factor, errorFactor(o.photon[j].cycles,
                                                  o.full[j].cycles));
            std::ostringstream os;
            os << jobs[j].label << ": photon " << o.photon[j].cycles
               << " cycles in " << o.photon[j].launchSeconds
               << " s (" << levelSummary(o.photon[j].telemetry)
               << "), full " << o.full[j].cycles << " cycles in "
               << o.full[j].launchSeconds << " s; error "
               << errorPct(o.photon[j].cycles, o.full[j].cycles)
               << "%, speedup "
               << o.full[j].launchSeconds / o.photon[j].launchSeconds
               << "x";
            res.note(os.str());
        }
        res.note("passes " + std::to_string(passes));
        res.set("setup_s", median(setups));
        res.set("photon_s", median(photon_s));
        res.set("full_s", median(full_s));
        res.set("wall_s", median(wall_s));
        res.set("error_factor", factor);
        setPercentiles(res, "p50_ms", "tail_ms", launches, 1e3,
                       "Platform::launch latency (ms)");
        res.set("peak_rss_mb", peakRssMb());
        return;
    }

    // Traced run: a traced pass between two untraced ones (the
    // overhead is the difference to their mean), then the per-launch
    // decomposition of every job.
    Tracer tracer;
    const PassOut before = runPass(jobs, nullptr, res);
    const PassOut traced = runPass(jobs, &tracer, res);
    const PassOut after = runPass(jobs, nullptr, res);
    checkRepeat(jobs, before, traced, res);
    checkRepeat(jobs, before, after, res);
    res.set("trace.overhead_s",
            traced.wall - 0.5 * (before.wall + after.wall));
    res.set("workloads.setup_s", traced.setupSeconds);

    std::vector<double> launches;
    std::vector<sampling::KernelTelemetry> photon_tele;
    double fallback = 0.0, err = 0.0, hits = 0.0;
    std::vector<DecompJob> djobs;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const ModeRun &ph = traced.photon[j];
        const ModeRun &fu = traced.full[j];
        for (const auto *r : {&ph, &fu})
            launches.insert(launches.end(), r->launchWalls.begin(),
                            r->launchWalls.end());
        photon_tele.insert(photon_tele.end(), ph.telemetry.begin(),
                           ph.telemetry.end());
        for (std::size_t i = 0; i < ph.telemetry.size(); ++i)
            if (ph.telemetry[i].level == sampling::SampleLevel::Full)
                fallback += ph.launchWalls[i] - fu.launchWalls[i];
        err = std::max(err, errorPct(ph.cycles, fu.cycles));
        hits += static_cast<double>(ph.cacheHits);
        djobs.push_back({jobs[j].label, GpuConfig::r9Nano(), jobs[j].make,
                         fu.cycles, fu.insts});
    }
    setPercentiles(res, "driver.launch_p50_ms", "driver.launch_tail_ms",
                   launches, 1e3, "Platform::launch latency (ms)");
    res.set("driver.launch_count", static_cast<double>(launches.size()));
    setSamplingCounts(res, photon_tele);
    res.set("sampling.fallback_overhead_s", fallback);
    res.set("sampling.error_pct", err);
    res.set("sampling.kernel_cache_hits", hits);
    decompose(djobs, tracer, -1, res);
    finishTrace(tracer, opt, res);
}

} // namespace perfbench
