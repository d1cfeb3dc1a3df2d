#include "sampling/fidelity.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "isa/basic_block.hpp"
#include "sampling/controller.hpp"
#include "sampling/warp_sampler.hpp"
#include "timing/scheduler_model.hpp"

namespace photon::sampling {

namespace {

/**
 * The auto pilot's control plane: a PhotonController (warp policy
 * only) drives the switch decision exactly as in Photon mode, while
 * the wrapper additionally folds every observed instruction latency
 * into the kernel's interval fits — the data the analytical epilogue
 * and later latched launches are priced from.
 */
class AutoController final : public SamplingController
{
  public:
    AutoController(WarpSampler *warp, std::uint64_t min_retired_warps,
                   InstLatencyTable &table)
        : inner_(warp, nullptr, min_retired_warps), table_(table)
    {}

    PHOTON_SHARED_STATE
    void
    onKernelPhase(timing::KernelPhase phase, Cycle now) override
    {
        inner_.onKernelPhase(phase, now);
    }

    PHOTON_SHARED_STATE
    void
    onWaveDispatched(WarpId warp, Cycle now) override
    {
        inner_.onWaveDispatched(warp, now);
    }

    PHOTON_SHARED_STATE
    void
    onWaveRetired(WarpId warp, Cycle now,
                  std::uint64_t inst_count) override
    {
        inner_.onWaveRetired(warp, now, inst_count);
    }

    PHOTON_SHARED_STATE
    void
    onInstruction(WarpId warp, const func::StepResult &result,
                  Cycle issue, Cycle complete) override
    {
        table_.record(result.op, complete - issue);
        inner_.onInstruction(warp, result, issue, complete);
    }

    PHOTON_SHARED_STATE
    void
    onBbExecuted(WarpId warp, isa::BbId bb, Cycle issue, Cycle retire,
                 std::uint32_t active_lanes) override
    {
        inner_.onBbExecuted(warp, bb, issue, retire, active_lanes);
    }

    PHOTON_SHARED_STATE
    bool
    wantsStop(Cycle now) override
    {
        return inner_.wantsStop(now);
    }

    const SwitchDecision &decision() const override
    {
        return inner_.decision();
    }

    std::vector<Cycle> takeDrainRetires() override
    {
        return inner_.takeDrainRetires();
    }

  private:
    PhotonController inner_;
    InstLatencyTable &table_;
};

} // namespace

FidelityPilot::FidelityPilot(timing::Gpu &gpu,
                             timing::IntervalBackend &interval,
                             const SamplingConfig &cfg)
    : gpu_(gpu), interval_(interval), cfg_(cfg)
{}

FidelityPilot::KernelState &
FidelityPilot::state(const std::string &kernel)
{
    auto it = kernels_.find(kernel);
    if (it == kernels_.end())
        it = kernels_.emplace(kernel, KernelState(cfg_, gpu_.config()))
                 .first;
    return it->second;
}

std::uint64_t
FidelityPilot::latchedKernels() const
{
    std::uint64_t n = 0;
    for (const auto &kv : kernels_)
        if (kv.second.governor.switched())
            ++n;
    return n;
}

void
FidelityPilot::seedInterval(const std::string &kernel, KernelState &st)
{
    if (st.seeded)
        return;
    std::vector<timing::LatencyObservation> obs;
    for (unsigned i = 0; i < isa::kNumOpcodes; ++i) {
        auto op = static_cast<isa::Opcode>(i);
        std::uint64_t n = st.latencies.observations(op);
        if (n == 0)
            continue;
        obs.push_back({i, st.latencies.observedSum(op), n});
    }
    interval_.seedLatencies(kernel, obs);
    st.seeded = true;
}

KernelRunResult
FidelityPilot::runInterval(const isa::Program &program,
                           const func::LaunchDims &dims,
                           func::GlobalMemory &mem, bool first,
                           const func::LaunchTrace *replay)
{
    timing::RunOptions opts;
    opts.splitBbAtWaitcnt = cfg_.bbSplitAtWaitcnt;
    opts.replay = replay;
    timing::RunOutcome out =
        interval_.runKernel(program, dims, mem, nullptr, opts);

    KernelRunResult res;
    res.cycles = out.cycles();
    res.insts = out.instsIssued;
    res.level = SampleLevel::Full;

    KernelTelemetry &tele = res.telemetry;
    tele.kernel = program.name();
    tele.numWorkgroups = dims.numWorkgroups;
    tele.wavesPerWorkgroup = dims.wavesPerWorkgroup;
    tele.totalWarps = dims.totalWaves();
    tele.level = res.level;
    tele.predictedCycles = res.cycles;
    tele.predictedInsts = res.insts;
    tele.backend = "interval";
    tele.backendIntervalCycles = out.cycles();
    // The cross-kernel switch point: the first latched launch records
    // where on the timeline the fidelity handoff happened.
    tele.switchCycle = first ? out.startCycle : 0;

    ++intervalLaunches_;
    return res;
}

KernelRunResult
FidelityPilot::runPassthrough(const isa::Program &program,
                              const func::LaunchDims &dims,
                              func::GlobalMemory &mem,
                              const func::LaunchTrace *replay)
{
    timing::RunOptions run_opts;
    run_opts.splitBbAtWaitcnt = cfg_.bbSplitAtWaitcnt;
    run_opts.replay = replay;
    // No monitor: the run takes the detailed core's fast tick, so a
    // never-latching kernel pays the pilot nothing beyond one map
    // lookup per launch.
    timing::RunOutcome out =
        gpu_.runKernel(program, dims, mem, nullptr, run_opts);

    KernelRunResult res;
    res.cycles = out.cycles();
    res.insts = out.instsIssued;
    res.level = SampleLevel::Full;

    KernelTelemetry &tele = res.telemetry;
    tele.kernel = program.name();
    tele.numWorkgroups = dims.numWorkgroups;
    tele.wavesPerWorkgroup = dims.wavesPerWorkgroup;
    tele.totalWarps = dims.totalWaves();
    tele.level = res.level;
    tele.predictedCycles = res.cycles;
    tele.predictedInsts = res.insts;
    tele.backend = "detailed";
    tele.detailedCycles = out.cycles();
    tele.detailedInsts = out.instsIssued;
    tele.detailedWarps = out.wavesCompleted;
    tele.backendDetailedCycles = out.cycles();
    return res;
}

KernelRunResult
FidelityPilot::runKernel(const isa::Program &program,
                         const func::LaunchDims &dims,
                         func::GlobalMemory &mem,
                         const func::LaunchTrace *replay)
{
    KernelState &st = state(program.name());

    // Cross-kernel scope: once this kernel's launch durations proved
    // stable, the whole launch runs analytically.
    if (st.governor.switched()) {
        bool first = !st.seeded;
        seedInterval(program.name(), st);
        return runInterval(program, dims, mem, first, replay);
    }

    ++st.launches;

    // Monitor-budget scope: launch 1 runs unmonitored (zero overhead —
    // single-launch kernels never pay the pilot), monitoring spends
    // launches 2..kMonitorBudget+1, and a kernel whose budget ran out
    // without one intra-kernel switch falls back to pure detailed
    // passthrough for good. Every path still feeds the launch-duration
    // detector below via the returned cycle counts.
    bool monitor_this = !st.passthrough && st.launches >= 2 &&
                        (st.sawSwitch || st.monitored < kMonitorBudget);
    if (!monitor_this) {
        if (!st.passthrough && st.launches >= 2 && !st.sawSwitch)
            st.passthrough = true;
        KernelRunResult res = runPassthrough(program, dims, mem, replay);
        st.detector.addPoint(
            static_cast<double>(gpu_.now()) -
                static_cast<double>(res.cycles),
            static_cast<double>(gpu_.now()));
        st.governor.recordEvent();
        st.governor.poll([&st] { return st.detector.stable(); });
        return res;
    }
    ++st.monitored;

    KernelRunResult res;
    KernelTelemetry &tele = res.telemetry;
    tele.kernel = program.name();
    tele.numWorkgroups = dims.numWorkgroups;
    tele.wavesPerWorkgroup = dims.wavesPerWorkgroup;
    tele.totalWarps = dims.totalWaves();

    // Intra-kernel scope: detailed simulation with the warp-stability
    // control plane attached. The sampler is forcibly armed — auto
    // mode has no online-analysis pass, so the stability detectors
    // alone govern the switch.
    OnlineAnalysis forced;
    forced.dominantRate = 1.0;
    SamplingConfig wcfg = cfg_;
    wcfg.dominantWarpRate = 0.0;
    WarpSampler warp_sampler(forced, wcfg);
    std::uint32_t slots = timing::SchedulerModel::effectiveSlots(
        gpu_.config(), dims.wavesPerWorkgroup, program.ldsBytes());
    AutoController ctl(&warp_sampler, slots, st.latencies);

    timing::RunOptions run_opts;
    run_opts.splitBbAtWaitcnt = cfg_.bbSplitAtWaitcnt;
    run_opts.replay = replay;
    timing::RunOutcome outcome =
        gpu_.runKernel(program, dims, mem, &ctl, run_opts);

    tele.detailedCycles = outcome.cycles();
    tele.detailedInsts = outcome.instsIssued;
    tele.detailedWarps = outcome.wavesCompleted;

    const SwitchDecision &decision = ctl.decision();
    tele.switchCycle = decision.cycle;
    tele.residentAtSwitch = decision.residentAtStop;
    tele.warpDetector = decision.warpDetector;

    if (!outcome.stoppedEarly) {
        res.cycles = outcome.cycles();
        res.insts = outcome.instsIssued;
        res.level = SampleLevel::Full;
        tele.backend = "detailed";
        tele.backendDetailedCycles = outcome.cycles();
    } else {
        // Intra-kernel handoff: seed the interval fits with the
        // latencies observed up to the switch, then price every
        // never-dispatched warp analytically through the
        // slot-occupancy scheduler (slots free at the drain retires).
        st.sawSwitch = true;
        seedInterval(program.name(), st);
        std::vector<Cycle> slot_times = ctl.takeDrainRetires();
        timing::SchedulerModel sched(slots, decision.cycle,
                                     std::move(slot_times));

        std::uint32_t dispatched_warps =
            outcome.firstUndispatchedWg * dims.wavesPerWorkgroup;
        std::uint64_t rem_insts = 0;
        for (WarpId w = dispatched_warps; w < tele.totalWarps; ++w) {
            auto est = interval_.estimateWarp(program, dims, mem, w,
                                              cfg_.bbSplitAtWaitcnt,
                                              replay);
            sched.scheduleWarp(est.duration);
            rem_insts += est.insts;
        }

        Cycle kernel_end = std::max(outcome.endCycle, sched.endCycle());
        gpu_.skipTime(kernel_end - outcome.endCycle);
        res.cycles = kernel_end - outcome.startCycle;
        res.insts = outcome.instsIssued + rem_insts;
        res.level = SampleLevel::Warp;
        tele.backend = "auto";
        tele.backendDetailedCycles = outcome.cycles();
        tele.backendIntervalCycles = kernel_end - outcome.endCycle;
        ++intervalLaunches_;
    }
    tele.level = res.level;
    tele.predictedCycles = res.cycles;
    tele.predictedInsts = res.insts;

    // Cross-kernel bookkeeping: one (start, end) observation per
    // launch; the governor polls the tiny launch-duration window.
    st.detector.addPoint(static_cast<double>(outcome.startCycle),
                         static_cast<double>(outcome.startCycle) +
                             static_cast<double>(res.cycles));
    st.governor.recordEvent();
    st.governor.poll([&st] { return st.detector.stable(); });
    return res;
}

} // namespace photon::sampling
