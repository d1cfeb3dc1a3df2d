/**
 * @file
 * The interval timing backend: a fast analytical model that predicts a
 * kernel's execution time without running the cycle-level core. Every
 * warp is functionally executed once (the pre-decoded instruction
 * stream; stores apply to real simulated memory), but only the warps
 * of a static sample of CUs (one in four) are priced as they retire:
 * per-opcode latencies come from the sampling layer's interval-model
 * fits (paper Figure 9), memory instructions are classified hit/miss
 * by tag-only set-associative LRU proxies mirroring the detailed
 * L1/L2 geometry, and the remaining warps' durations are extrapolated
 * from the matching warp slot of their sample CU by instruction
 * count. Warps are packed onto the machine's wavefront slots through
 * the slot-occupancy scheduler model, and the resulting makespan is
 * floored by the machine's DRAM-line bandwidth, SIMD-issue and
 * MSHR-concurrency limits (sample counters rescaled to machine
 * equivalents). Per-kernel latency fits can be seeded from a detailed
 * phase (the auto-mode handoff), replacing configuration-derived
 * defaults with observed means.
 *
 * Results are deterministic (same job -> bit-identical cycles) but
 * deliberately NOT cycle-parity with the detailed core: there is no
 * event loop, no MSHR or bank contention and no inter-warp
 * interference beyond slot occupancy and the aggregate throughput
 * floors. BackendCaps reflects that — no monitor hooks and no
 * occupancy statistics.
 *
 * Layering: this header must stay free of src/sampling includes (the
 * CI hygiene grep pins every timing header); the interval-model reuse
 * lives behind the pimpl in interval_backend.cpp.
 */

#ifndef PHOTON_TIMING_INTERVAL_BACKEND_HPP
#define PHOTON_TIMING_INTERVAL_BACKEND_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/phase_annotations.hpp"
#include "timing/backend.hpp"

namespace photon::timing {

/** One opcode's aggregated latency observations, the transfer format
 *  for seeding interval fits from a detailed phase (kept free of
 *  sampling-layer types so it can cross the timing seam). */
struct LatencyObservation
{
    std::uint32_t opcode = 0; ///< isa::Opcode as its underlying value
    double latencySum = 0.0;  ///< sum of observed completion latencies
    std::uint64_t count = 0;  ///< observations behind that sum
};

/** The analytical interval backend (see file comment). */
class IntervalBackend final : public TimingBackend
{
  public:
    /** Shares @p gpu's clock and configuration; never runs its event
     *  core. */
    explicit IntervalBackend(Gpu &gpu);
    ~IntervalBackend() override;

    IntervalBackend(const IntervalBackend &) = delete;
    IntervalBackend &operator=(const IntervalBackend &) = delete;

    const char *name() const override { return "interval"; }

    BackendCaps
    caps() const override
    {
        // All flags false: analytical results only.
        return BackendCaps{};
    }

    /** Predict one kernel. @p monitor is ignored (no monitorHooks
     *  capability); of @p opts only splitBbAtWaitcnt is meaningful. */
    RunOutcome runKernel(const isa::Program &program,
                         const func::LaunchDims &dims,
                         func::GlobalMemory &mem,
                         KernelMonitor *monitor = nullptr,
                         const RunOptions &opts = {}) override;

    void skipTime(Cycle cycles) override;
    Cycle now() const override;
    const GpuConfig &config() const override;

    /** Export prediction statistics (kernels/warps/insts predicted,
     *  proxy hit/miss totals). Exported counters are user-visible
     *  results (determinism sink). */
    PHOTON_DET_SINK
    void exportStats(StatRegistry &stats) const override;

    /**
     * Seed @p kernel's latency table with observations aggregated
     * during a detailed phase (auto mode's handoff). Invalidates the
     * kernel's memoized per-opcode costs — predictions after a seed
     * reflect the merged fits.
     */
    void seedLatencies(const std::string &kernel,
                       const std::vector<LatencyObservation> &obs);

    /** One warp's predicted cost (duration never below 1 cycle). */
    struct WarpEstimate
    {
        Cycle duration = 1;
        std::uint64_t insts = 0;
    };

    /**
     * Predict a single warp of @p program under this backend's current
     * fits — the auto pilot's epilogue uses this to price the warps
     * the detailed phase never dispatched. Functionally executes the
     * warp (its stores apply to @p mem) unless @p replay supplies a
     * captured trace, in which case the warp's StepResult stream is
     * replayed bit-identically with no memory writes (the caller
     * already applied the trace's store log).
     */
    WarpEstimate estimateWarp(const isa::Program &program,
                              const func::LaunchDims &dims,
                              func::GlobalMemory &mem, WarpId warp,
                              bool split_bb_at_waitcnt = false,
                              const func::LaunchTrace *replay = nullptr);

  private:
    struct Impl;

    Gpu &gpu_;
    /** Per-kernel fits plus the L1/L2 tag proxies (deliberately warm
     *  across kernels, like the machine's caches). The store has a
     *  single owner (one backend per job); tagged anyway so any
     *  future cross-job sharing trips the lock-set check instead of
     *  racing silently. */
    PHOTON_SHARED_STATE
    std::unique_ptr<Impl> impl_;
};

} // namespace photon::timing

#endif // PHOTON_TIMING_INTERVAL_BACKEND_HPP
