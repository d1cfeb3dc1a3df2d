/**
 * @file
 * google-benchmark micro-benchmarks of the simulator's hot components:
 * functional emulation, cache probing, the stability detector and the
 * signature machinery. These bound the simulator's achievable
 * throughput (and therefore every wall-time speedup in the paper
 * figures).
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "func/emulator.hpp"
#include "isa/basic_block.hpp"
#include "isa/builder.hpp"
#include "sampling/bbv.hpp"
#include "sampling/gpu_bbv.hpp"
#include "sampling/stability.hpp"
#include "sim/rng.hpp"
#include "timing/cache.hpp"
#include "timing/dram.hpp"
#include "workloads/workload.hpp"

using namespace photon;

namespace {

isa::ProgramPtr
aluLoop(std::uint32_t iters)
{
    isa::KernelBuilder b("alu_loop");
    b.vMov(1, isa::immF(1.0f));
    b.vMov(2, isa::immF(0.5f));
    b.sMov(3, isa::imm(0));
    isa::Label loop = b.label();
    b.bind(loop);
    b.vMacF32(1, isa::vreg(1), isa::vreg(2));
    b.vAddF32(2, isa::vreg(2), isa::immF(0.001f));
    b.sAdd(3, isa::sreg(3), isa::imm(1));
    b.emit(isa::Opcode::S_CMP_LT_U32, {}, isa::sreg(3), isa::imm(iters));
    b.branch(isa::Opcode::S_CBRANCH_SCC1, loop);
    b.endProgram();
    return b.finish();
}

void
BM_EmulatorAluLoop(benchmark::State &state)
{
    isa::ProgramPtr prog = aluLoop(1024);
    func::GlobalMemory mem(1 << 20);
    func::Emulator emu;
    func::LaunchDims dims{1, 1, 0};
    std::vector<std::uint8_t> lds;
    std::uint64_t insts = 0;
    for (auto _ : state) {
        func::WaveState ws;
        ws.init(*prog, dims, 0);
        insts += emu.runWave(*prog, ws, mem, lds);
    }
    state.counters["winstr/s"] = benchmark::Counter(
        static_cast<double>(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EmulatorAluLoop);

void
BM_CacheProbe(benchmark::State &state)
{
    CacheConfig cfg{16 * 1024, 4, 64, 16};
    timing::SetAssocCache cache(cfg);
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.probe(rng.nextBelow(4096)));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheProbe);

/** One L2 bank of the presets (256 KB, 16-way, 256 sets) under a
 *  miss-heavy random stream over 16x its capacity — the shape
 *  memory-irregular kernels (spmv, pagerank) drive, where a miss walks
 *  every way. The stream is drawn up front so the loop times the probe,
 *  not the generator. */
void
BM_CacheProbeL2(benchmark::State &state)
{
    CacheConfig cfg{256 * 1024, 16, 64, 110};
    timing::SetAssocCache cache(cfg);
    const std::uint64_t capacity = cfg.sizeBytes / cfg.lineBytes;
    Rng rng(4);
    std::vector<std::uint64_t> lines(1 << 16);
    for (std::uint64_t &l : lines)
        l = rng.nextBelow(16 * capacity);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.probe(lines[i]));
        i = (i + 1) & (lines.size() - 1);
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["miss_rate"] =
        static_cast<double>(cache.misses()) /
        static_cast<double>(cache.hits() + cache.misses());
}
BENCHMARK(BM_CacheProbeL2);

void
BM_DramAccess(benchmark::State &state)
{
    DramConfig cfg;
    timing::Dram dram(cfg);
    Rng rng(2);
    Cycle now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(dram.access(rng.nextBelow(1 << 20), now));
        ++now;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramAccess);

void
BM_StabilityDetector(benchmark::State &state)
{
    sampling::StabilityDetector det(2048, 0.08);
    Rng rng(3);
    double t = 0;
    for (auto _ : state) {
        t += 1.0;
        det.addPoint(t, t + 100 + static_cast<double>(rng.nextBelow(10)));
        if (static_cast<std::uint64_t>(t) % 512 == 0)
            benchmark::DoNotOptimize(det.stable());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StabilityDetector);

void
BM_BbvProjection(benchmark::State &state)
{
    sampling::Bbv bbv(64);
    Rng rng(4);
    for (int i = 0; i < 1000; ++i)
        bbv.add(static_cast<isa::BbId>(rng.nextBelow(64)), 64);
    for (auto _ : state)
        benchmark::DoNotOptimize(bbv.project(16));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BbvProjection);

void
BM_GpuBbvDistance(benchmark::State &state)
{
    sampling::WarpClassifier cls;
    Rng rng(5);
    for (int w = 0; w < 64; ++w) {
        sampling::Bbv bbv(32);
        for (int i = 0; i < 100; ++i)
            bbv.add(static_cast<isa::BbId>(rng.nextBelow(32)), 64);
        cls.classify(bbv, 1000);
    }
    sampling::GpuBbv a = sampling::GpuBbv::build(cls, 16, 8);
    sampling::GpuBbv b = a;
    for (auto _ : state)
        benchmark::DoNotOptimize(a.distance(b));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GpuBbvDistance);

} // namespace

BENCHMARK_MAIN();
