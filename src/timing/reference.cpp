#include "timing/reference.hpp"

#include <algorithm>
#include <bit>

#include "sim/log.hpp"

namespace photon::timing {

namespace {

/** Bytes per encoded instruction for L1I address purposes. */
constexpr Addr kInstBytes = 8;

/** Instructions per L1I line, for the pc -> fetch-line shift. */
constexpr std::uint32_t kPcsPerLine =
    static_cast<std::uint32_t>(kLineBytes / kInstBytes);

} // namespace

ReferenceCu::ReferenceCu(const GpuConfig &cfg, std::uint32_t cuId,
                         MemorySystem &memsys, const func::Emulator &emu)
    : cfg_(cfg), cuId_(cuId), memsys_(memsys), emu_(emu),
      waves_(cfg.simdsPerCu * cfg.wavesPerSimd),
      wgs_(cfg.workgroupsPerCu), simdFree_(cfg.simdsPerCu, 0)
{}

void
ReferenceCu::startKernel(const KernelContext &ctx)
{
    PHOTON_ASSERT(residentWaves_ == 0, "reference CU busy at kernel start");
    ctx_ = ctx;
    PHOTON_ASSERT(ctx.codeBase % kLineBytes == 0,
                  "code base not line-aligned");
    codeLineBase_ = ctx.codeBase / kLineBytes;
    for (Wave &w : waves_)
        w.active = false;
    for (Workgroup &wg : wgs_)
        wg.active = false;
    std::fill(simdFree_.begin(), simdFree_.end(), 0);
    residentWaves_ = 0;
    residentWgs_ = 0;
    instsIssued_ = 0;
    wavesRetired_ = 0;
}

bool
ReferenceCu::canAcceptWorkgroup() const
{
    if (residentWgs_ >= cfg_.workgroupsPerCu)
        return false;
    std::uint32_t free_slots =
        static_cast<std::uint32_t>(waves_.size()) - residentWaves_;
    if (free_slots < ctx_.dims->wavesPerWorkgroup)
        return false;
    std::uint64_t lds_needed =
        std::uint64_t{residentWgs_ + 1} * ctx_.program->ldsBytes();
    return lds_needed <= cfg_.ldsBytesPerCu;
}

void
ReferenceCu::placeWorkgroup(WorkgroupId wg, Cycle now)
{
    PHOTON_ASSERT(canAcceptWorkgroup(), "placeWorkgroup without capacity");

    std::uint32_t wg_slot = 0;
    while (wgs_[wg_slot].active)
        ++wg_slot;
    Workgroup &group = wgs_[wg_slot];
    group.active = true;
    group.id = wg;
    group.wavesLeft = ctx_.dims->wavesPerWorkgroup;
    group.barrierWaiting = 0;
    group.lds.assign(ctx_.program->ldsBytes(), 0);
    group.slots.clear();
    ++residentWgs_;

    std::uint32_t wave_slot = 0;
    for (std::uint32_t i = 0; i < ctx_.dims->wavesPerWorkgroup; ++i) {
        while (waves_[wave_slot].active)
            ++wave_slot;
        Wave &w = waves_[wave_slot];
        WarpId warp = wg * ctx_.dims->wavesPerWorkgroup + i;
        w.ws.init(*ctx_.program, *ctx_.dims, warp);
        w.active = true;
        w.atBarrier = false;
        w.readyAt = now + 4; // dispatch latency
        w.instCount = 0;
        w.wgSlot = wg_slot;
        w.lastFetchLine = ~std::uint64_t{0};
        w.bbValid = false;
        group.slots.push_back(wave_slot);
        ++residentWaves_;
        if (ctx_.monitor)
            ctx_.monitor->onWaveDispatched(warp, now);
    }
}

std::uint32_t
ReferenceCu::tick(Cycle now)
{
    if (residentWaves_ == 0)
        return 0;

    std::uint32_t issued = 0;
    const std::uint32_t simds = cfg_.simdsPerCu;
    const std::uint32_t per_simd = cfg_.wavesPerSimd;

    for (std::uint32_t s = 0; s < simds; ++s) {
        if (simdFree_[s] > now)
            continue;
        // Age-prioritised arbitration (GCN issues the oldest ready
        // wavefront): the straightforward branchy scan over every slot
        // of the SIMD.
        std::uint32_t best = ~std::uint32_t{0};
        WarpId best_warp = ~WarpId{0};
        for (std::uint32_t k = 0; k < per_simd; ++k) {
            const Wave &w = waves_[s + k * simds];
            if (!w.active || w.atBarrier || w.readyAt > now)
                continue;
            if (w.ws.warpId < best_warp) {
                best_warp = w.ws.warpId;
                best = s + k * simds;
            }
        }
        if (best != ~std::uint32_t{0}) {
            issueWave(best, now);
            ++issued;
        }
    }
    return issued;
}

void
ReferenceCu::issueWave(std::uint32_t slot, Cycle now)
{
    Wave &w = waves_[slot];
    Workgroup &wg = wgs_[w.wgSlot];
    const std::uint32_t simd = slot % cfg_.simdsPerCu;
    const std::uint32_t pc_before = w.ws.pc;
    const WarpId warp = w.ws.warpId;

    // Dynamic basic-block boundary: issuing the first instruction of a
    // block ends the previous one (paper Observation 3 definition).
    bool bb_end = false;
    isa::BbId bb = isa::kNoBb;
    Cycle bb_issue = 0;
    std::uint32_t bb_lanes = 0;
    if (ctx_.bbTable->isLeader(pc_before)) {
        if (w.bbValid) {
            bb_end = true;
            bb = w.curBb;
            bb_issue = w.curBbIssue;
            bb_lanes = w.curBbLanes;
        }
        w.curBb = ctx_.bbTable->blockAt(pc_before);
        w.curBbIssue = now;
        w.curBbLanes =
            static_cast<std::uint32_t>(std::popcount(w.ws.exec));
        w.bbValid = true;
    }

    // Instruction fetch through the L1I (one access per line crossed).
    bool do_fetch = false;
    std::uint64_t fetch_line = codeLineBase_ + pc_before / kPcsPerLine;
    if (fetch_line != w.lastFetchLine) {
        do_fetch = true;
        w.lastFetchLine = fetch_line;
    }

    emu_.step(*ctx_.program, w.ws, *ctx_.mem, wg.lds, step_);
    ++w.instCount;
    ++instsIssued_;

    // Per-unit latency selection: the reference keeps the plain switch.
    // The L1V probes run before the L1I fetch and the miss commits, the
    // same shared-state order as the event core's issue body — the
    // memory system's counters must not be able to tell the two engines
    // apart.
    misses_.clear();
    Cycle complete = now + 1;
    Cycle ready = now + 1;
    switch (step_.unit) {
      case isa::FuncUnit::SALU:
        complete = now + cfg_.saluLatency;
        ready = complete;
        simdFree_[simd] = now + cfg_.scalarIssueCycles;
        break;
      case isa::FuncUnit::BRANCH:
        complete = now + cfg_.saluLatency;
        ready = complete;
        simdFree_[simd] = now + cfg_.scalarIssueCycles;
        break;
      case isa::FuncUnit::VALU:
        complete = now + cfg_.valuLatency;
        ready = complete;
        simdFree_[simd] = now + cfg_.vectorIssueCycles;
        break;
      case isa::FuncUnit::VALU4:
        complete = now + 4 * cfg_.valuLatency;
        ready = complete;
        simdFree_[simd] = now + 4 * cfg_.vectorIssueCycles;
        break;
      case isa::FuncUnit::LDS:
        // One extra cycle per 16 lane-accesses (bank conflicts beyond
        // the 16-bank width are second order).
        complete = now + cfg_.ldsLatency + step_.ldsAccesses / 16;
        ready = complete;
        simdFree_[simd] = now + cfg_.vectorIssueCycles;
        break;
      case isa::FuncUnit::SMEM:
        simdFree_[simd] = now + cfg_.scalarIssueCycles;
        break;
      case isa::FuncUnit::VMEM: {
        Cycle finish = now;
        for (std::uint32_t i = 0; i < step_.numLines; ++i) {
            MemorySystem::VmemProbe p =
                memsys_.vectorProbe(cuId_, step_.lines[i], now);
            if (p.hit) {
                finish = std::max(finish, p.ready);
            } else {
                misses_.push_back(
                    {step_.lines[i], p.missBase, p.mshrIdx});
            }
        }
        complete = finish; // hit-path maximum; misses folded below
        // Loads block the wavefront until data returns; stores retire
        // from the wavefront's perspective once issued.
        ready = step_.linesWrite ? now + cfg_.vectorIssueCycles : 0;
        simdFree_[simd] = now + cfg_.vectorIssueCycles;
        break;
      }
      case isa::FuncUnit::SYNC:
        complete = now + 1;
        ready = now + 1;
        simdFree_[simd] = now + 1;
        break;
    }

    if (bb_end && ctx_.monitor)
        ctx_.monitor->onBbExecuted(warp, bb, bb_issue, now, bb_lanes);

    Cycle fetch_ready = now;
    if (do_fetch)
        fetch_ready = memsys_.instAccess(cuId_, fetch_line, now);

    if (step_.unit == isa::FuncUnit::SMEM) {
        complete = memsys_.scalarAccess(cuId_, step_.lines[0], now);
        ready = complete;
    } else if (step_.unit == isa::FuncUnit::VMEM) {
        Cycle finish = complete;
        for (const MemorySystem::VmemMiss &m : misses_)
            finish = std::max(finish, memsys_.vectorCommitMiss(cuId_, m));
        complete = finish;
        if (!step_.linesWrite)
            ready = finish;
    }

    w.readyAt = std::max(ready, fetch_ready);

    if (ctx_.monitor)
        ctx_.monitor->onInstruction(warp, step_, now, complete);

    if (step_.barrier) {
        w.atBarrier = true;
        ++wg.barrierWaiting;
        if (wg.barrierWaiting == wg.wavesLeft)
            releaseBarrier(w.wgSlot, now);
    }

    if (step_.done)
        retireWave(slot, now);
}

void
ReferenceCu::retireWave(std::uint32_t slot, Cycle now)
{
    Wave &w = waves_[slot];
    Workgroup &wg = wgs_[w.wgSlot];

    if (w.bbValid && ctx_.monitor) {
        ctx_.monitor->onBbExecuted(w.ws.warpId, w.curBb, w.curBbIssue,
                                   now, w.curBbLanes);
    }
    if (ctx_.monitor)
        ctx_.monitor->onWaveRetired(w.ws.warpId, now, w.instCount);

    w.active = false;
    --residentWaves_;
    ++wavesRetired_;
    --wg.wavesLeft;
    if (wg.wavesLeft == 0) {
        wg.active = false;
        --residentWgs_;
    } else if (wg.barrierWaiting > 0 &&
               wg.barrierWaiting == wg.wavesLeft) {
        // A retiring wavefront can complete a barrier for the others.
        releaseBarrier(w.wgSlot, now);
    }
}

void
ReferenceCu::releaseBarrier(std::uint32_t wgSlot, Cycle now)
{
    // Walk only this workgroup's wave slots (recorded at placement).
    // The wgSlot check guards slots retired here and reused by another
    // workgroup placed while this one was still resident.
    for (std::uint32_t slot : wgs_[wgSlot].slots) {
        Wave &w = waves_[slot];
        if (w.active && w.wgSlot == wgSlot && w.atBarrier) {
            w.atBarrier = false;
            w.readyAt = std::max(w.readyAt, now + 1);
        }
    }
    wgs_[wgSlot].barrierWaiting = 0;
}

ReferenceEngine::ReferenceEngine(const GpuConfig &cfg,
                                 MemorySystem &memsys,
                                 const func::Emulator &emu)
    : cfg_(cfg)
{
    cus_.reserve(cfg.numCus);
    for (std::uint32_t i = 0; i < cfg.numCus; ++i)
        cus_.emplace_back(cfg, i, memsys, emu);
}

void
ReferenceEngine::tryDispatch(Cycle now)
{
    // Round-robin over the CUs, workgroup-id order — the same placement
    // policy as timing::Dispatcher, rescanned every cycle.
    while (nextWg_ < numWgs_) {
        bool any = false;
        for (std::size_t i = 0; i < cus_.size(); ++i) {
            std::size_t cu = (rr_ + i) % cus_.size();
            if (cus_[cu].canAcceptWorkgroup()) {
                cus_[cu].placeWorkgroup(nextWg_++, now);
                rr_ = (cu + 1) % cus_.size();
                any = true;
                break;
            }
        }
        if (!any)
            return;
    }
}

RunOutcome
ReferenceEngine::run(const KernelContext &ctx, KernelMonitor *monitor,
                     const RunOptions &opts, Cycle &now)
{
    for (ReferenceCu &cu : cus_)
        cu.startKernel(ctx);
    numWgs_ = ctx.dims->numWorkgroups;
    nextWg_ = 0;
    rr_ = 0;

    RunOutcome out;
    out.startCycle = now;
    bool stopping = false;

    while (true) {
        if (monitor && !stopping && monitor->wantsStop(now)) {
            stopping = true;
            monitor->onKernelPhase(KernelPhase::Draining, now);
        }
        if (!stopping)
            tryDispatch(now);

        // Scan every resident CU, every cycle — the per-cycle reference
        // schedule the event core's wheel/heap short-circuits.
        std::uint32_t issued = 0;
        bool any_resident = false;
        for (ReferenceCu &cu : cus_) {
            if (cu.idle())
                continue;
            any_resident = true;
            issued += cu.tick(now);
        }

        if (issued > 0 && opts.collectIpcTrace) {
            std::size_t bucket =
                (now - out.startCycle) / opts.ipcBucketCycles;
            if (out.ipcTrace.size() <= bucket)
                out.ipcTrace.resize(bucket + 1, 0.0);
            out.ipcTrace[bucket] += issued;
        }

        if (!any_resident && (nextWg_ >= numWgs_ || stopping))
            break;

        // Occupancy integrals with post-tick residency, matching the
        // event loop's accountAdvance over its (jumped) cycle ranges:
        // occupancy is constant over any stretch the event loop skips,
        // so summing per cycle here lands on the same totals.
        std::uint32_t busy = 0;
        std::uint32_t resident = 0;
        for (const ReferenceCu &cu : cus_) {
            if (!cu.idle()) {
                ++busy;
                resident += cu.residentWaves();
            }
        }
        if (busy > 0) {
            out.activeCycles += 1;
            out.busyCuCycles += busy;
            out.waveCycles += resident;
        }
        now += 1;
    }

    out.stoppedEarly = stopping;
    out.firstUndispatchedWg = nextWg_;
    for (const ReferenceCu &cu : cus_) {
        out.instsIssued += cu.instsIssued();
        out.wavesCompleted += cu.wavesRetired();
    }
    return out;
}

} // namespace photon::timing
