/**
 * @file
 * The pluggable timing-backend seam. A TimingBackend is anything that
 * can turn a kernel launch into a RunOutcome: the cycle-level event
 * core (DetailedBackend, a thin adapter over Gpu), the analytical
 * interval model (IntervalBackend), or — one layer up, in the driver —
 * the multi-fidelity auto pilot that switches between them mid-run.
 *
 * The seam deliberately reuses the detailed model's RunOptions /
 * RunOutcome vocabulary so every consumer of a run result (Platform,
 * campaign runner, photond) is backend-agnostic; what differs between
 * backends is *capability*, declared up front through BackendCaps so
 * callers can distinguish "this statistic is zero" from "this backend
 * cannot produce this statistic" (telemetry reports the latter as
 * null, never as a fake zero).
 *
 * Layering: this header sits in src/timing and must not include
 * anything from src/sampling (the CI hygiene check pins that); the
 * IntervalBackend's use of the sampling layer's interval-model fits is
 * confined to its .cpp.
 */

#ifndef PHOTON_TIMING_BACKEND_HPP
#define PHOTON_TIMING_BACKEND_HPP

#include <string_view>

#include "func/memory.hpp"
#include "func/wave_state.hpp"
#include "isa/program.hpp"
#include "sim/config.hpp"
#include "sim/phase_annotations.hpp"
#include "sim/stats.hpp"
#include "timing/gpu.hpp"

namespace photon::timing {

/** Which timing backend simulates a job's kernels. */
enum class BackendKind
{
    Detailed, ///< the cycle-level event core (bit-identical to seed)
    Interval, ///< the fast analytical interval model
    Auto,     ///< detailed until stable, then latch onto interval
};

/** Canonical short name ("detailed"/"interval"/"auto"). */
const char *backendKindName(BackendKind kind);

/** Parse a canonical backend name; returns false on unknown names. */
bool parseBackendKind(std::string_view name, BackendKind &out);

/**
 * What a backend can actually produce. Capability flags let callers
 * degrade gracefully instead of reading zeros that were never
 * measured: telemetry writers emit null for absent statistics and the
 * CLI refuses flag combinations the backend cannot honour.
 */
struct BackendCaps
{
    /** Results are cycle-level (bit-identical to the seed model). */
    bool cycleLevel = false;
    /** KernelMonitor hooks fire during runs (sampling control plane). */
    bool monitorHooks = false;
    /** Occupancy integrals (active/busy/wave cycles) are measured. */
    bool occupancyStats = false;
};

/**
 * Abstract lifecycle of one timing model: configure (construction),
 * launch + run kernels (runKernel), advance time across sampled gaps
 * (skipTime), collect statistics (exportStats). All backends share one
 * monotonic clock — in this repository the wrapped Gpu's — so a
 * multi-fidelity driver can interleave backends on one timeline.
 */
class TimingBackend
{
  public:
    virtual ~TimingBackend() = default;

    /** Canonical backend name (stable; appears in telemetry/reports). */
    virtual const char *name() const = 0;

    /** What this backend can produce (see BackendCaps). */
    virtual BackendCaps caps() const = 0;

    /**
     * Run one kernel. Backends without monitorHooks capability ignore
     * @p monitor (callers should consult caps() before relying on the
     * control plane). Fields of the outcome the backend cannot measure
     * are left at their zero defaults; the matching BackendCaps flag is
     * how consumers tell "unmeasured" from "zero".
     */
    virtual RunOutcome runKernel(const isa::Program &program,
                                 const func::LaunchDims &dims,
                                 func::GlobalMemory &mem,
                                 KernelMonitor *monitor = nullptr,
                                 const RunOptions &opts = {}) = 0;

    /** Advance the shared clock without simulating. */
    virtual void skipTime(Cycle cycles) = 0;

    /** Current cycle on the shared clock. */
    virtual Cycle now() const = 0;

    /** The GPU configuration this backend models. */
    virtual const GpuConfig &config() const = 0;

    /** Export run statistics. Exported counters are user-visible
     *  results (determinism sink). */
    PHOTON_DET_SINK
    virtual void exportStats(StatRegistry &stats) const = 0;
};

/**
 * The cycle-level model as a TimingBackend: a pass-through adapter
 * over an existing Gpu. Owning nothing and adding nothing, it is
 * bit-identical to calling the Gpu directly — the golden-parity tests
 * pin that.
 */
class DetailedBackend final : public TimingBackend
{
  public:
    explicit DetailedBackend(Gpu &gpu) : gpu_(gpu) {}

    const char *name() const override { return "detailed"; }

    BackendCaps
    caps() const override
    {
        BackendCaps c;
        c.cycleLevel = true;
        c.monitorHooks = true;
        c.occupancyStats = true;
        return c;
    }

    RunOutcome
    runKernel(const isa::Program &program, const func::LaunchDims &dims,
              func::GlobalMemory &mem, KernelMonitor *monitor = nullptr,
              const RunOptions &opts = {}) override
    {
        return gpu_.runKernel(program, dims, mem, monitor, opts);
    }

    void skipTime(Cycle cycles) override { gpu_.skipTime(cycles); }
    Cycle now() const override { return gpu_.now(); }
    const GpuConfig &config() const override { return gpu_.config(); }

    PHOTON_DET_SINK
    void
    exportStats(StatRegistry &stats) const override
    {
        gpu_.exportStats(stats);
    }

    Gpu &gpu() { return gpu_; }

  private:
    Gpu &gpu_;
};

} // namespace photon::timing

#endif // PHOTON_TIMING_BACKEND_HPP
