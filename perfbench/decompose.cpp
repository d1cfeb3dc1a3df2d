#include <map>
#include <string>
#include <vector>

#include "func/warp_trace.hpp"
#include "harness.hpp"
#include "isa/basic_block.hpp"
#include "sampling/analysis.hpp"
#include "timing/interval_backend.hpp"

namespace perfbench {

using namespace photon;

namespace {

/** Summed duration of every span called @p name. */
double
spanTotal(const std::vector<SpanRecord> &spans, const std::string &name)
{
    double sum = 0.0;
    for (const SpanRecord &s : spans)
        if (s.name == name)
            sum += s.end - s.start;
    return sum;
}

double
hitRate(const StatRegistry &st, const std::string &cache)
{
    const double hits = st.get("mem." + cache + ".hits");
    const double misses = st.get("mem." + cache + ".misses");
    return hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

} // namespace

void
decompose(const std::vector<DecompJob> &jobs, Tracer &tracer,
          std::int64_t parent, Result &res)
{
    const SamplingConfig cfg;
    double capture_insts = 0, trace_bytes = 0, analysis_insts = 0;
    double cycles = 0, insts = 0;
    StatRegistry mem_stats;
    for (const DecompJob &job : jobs) {
        Span js(&tracer, "bench.decompose", job.label, parent);
        // Identically set-up Platforms: the first captures and replays
        // the detailed model, the second runs the online analysis, the
        // third replays the interval model. The allocator is
        // deterministic, so their kernarg addresses agree.
        driver::Platform full(job.gpu, driver::SimMode::FullDetailed);
        driver::Platform analysed(job.gpu, driver::SimMode::FullDetailed);
        driver::Platform interval(job.gpu, driver::SimMode::FullDetailed,
                                  cfg, timing::BackendKind::Interval);
        workloads::WorkloadPtr wf, wa, wi;
        {
            Span s(&tracer, "workloads.setup", job.label, js.id());
            wf = job.make();
            wf->setup(full);
            wa = job.make();
            wa->setup(analysed);
            wi = job.make();
            wi->setup(interval);
        }
        Cycle job_cycles = 0;
        std::uint64_t job_insts = 0;
        bool traceable = true;
        for (std::size_t i = 0; i < wf->launches().size(); ++i) {
            const workloads::LaunchSpec &l = wf->launches()[i];
            const isa::Program &prog = *l.program;
            func::LaunchDims dims;
            dims.numWorkgroups = l.numWorkgroups;
            dims.wavesPerWorkgroup = l.wavesPerWorkgroup;
            dims.kernargBase = l.kernarg;
            if (!func::traceable(prog)) {
                traceable = false;
                break;
            }

            func::LaunchTracePtr trace;
            {
                Span s(&tracer, "func.trace_key", job.label, js.id());
                (void)func::traceKey(prog, dims, full.mem());
            }
            {
                Span s(&tracer, "func.capture", job.label, js.id());
                trace = func::captureLaunchTrace(prog, dims, full.mem());
            }
            {
                Span s(&tracer, "func.serialize", job.label, js.id());
                std::vector<std::uint8_t> blob;
                func::serializeLaunchTrace(*trace, blob);
                trace_bytes += static_cast<double>(blob.size());
            }
            capture_insts += static_cast<double>(trace->totalInsts);
            timing::RunOptions replay;
            replay.replay = trace.get();
            {
                Span s(&tracer, "timing.detailed", job.label, js.id());
                timing::RunOutcome out = full.activeBackend().runKernel(
                    prog, dims, full.mem(), nullptr, replay);
                job_cycles += out.cycles();
                job_insts += out.instsIssued;
            }

            isa::BasicBlockTable bb(prog, cfg.bbSplitAtWaitcnt);
            {
                Span s(&tracer, "sampling.analysis", job.label, js.id());
                sampling::OnlineAnalysis a = sampling::analyzeKernel(
                    prog, bb, dims, analysed.mem(), cfg);
                analysis_insts += static_cast<double>(a.sampledInsts);
            }
            {
                Span s(&tracer, "func.apply_stores", job.label, js.id());
                func::applyAllStores(*trace, analysed.mem());
            }

            {
                Span s(&tracer, "func.apply_stores", job.label, js.id());
                func::applyAllStores(*trace, interval.mem());
            }
            {
                Span s(&tracer, "timing.interval", job.label, js.id());
                interval.interval()->runKernel(prog, dims, interval.mem(),
                                               nullptr, replay);
            }
        }
        res.check(traceable, job.label + ": every launch is traceable");
        res.check(job_cycles == job.expectCycles &&
                      job_insts == job.expectInsts,
                  job.label + ": decomposed detailed replay reproduces "
                              "the full-mode cycles (" +
                      std::to_string(job_cycles) + " vs " +
                      std::to_string(job.expectCycles) + ")");
        res.check(wf->check(full),
                  job.label + ": captured memory matches the reference");
        res.check(wa->check(analysed),
                  job.label + ": analysis + applyAllStores memory "
                              "matches the reference");
        cycles += static_cast<double>(job_cycles);
        insts += static_cast<double>(job_insts);
        mem_stats.merge(full.stats());
    }

    const std::vector<SpanRecord> spans = tracer.spans();
    res.set("func.trace_key_s", spanTotal(spans, "func.trace_key"));
    res.set("func.capture_s", spanTotal(spans, "func.capture"));
    res.set("func.capture_insts", capture_insts);
    res.set("func.trace_bytes", trace_bytes);
    res.set("func.apply_stores_s", spanTotal(spans, "func.apply_stores"));
    const double detailed_s = spanTotal(spans, "timing.detailed");
    res.set("timing.detailed_s", detailed_s);
    res.set("timing.detailed_cycles_per_s",
            detailed_s > 0 ? cycles / detailed_s : 0.0);
    res.set("timing.interval_s", spanTotal(spans, "timing.interval"));
    res.set("timing.cycles", cycles);
    res.set("timing.insts", insts);
    res.set("timing.l1v_hit_rate", hitRate(mem_stats, "l1v"));
    res.set("timing.l2_hit_rate", hitRate(mem_stats, "l2"));
    res.set("timing.dram_accesses", mem_stats.get("mem.dram.accesses"));
    res.set("sampling.analysis_s", spanTotal(spans, "sampling.analysis"));
    res.set("sampling.analysis_insts", analysis_insts);
}

} // namespace perfbench
