/**
 * @file
 * Issue-loop microbench: drives one ComputeUnit directly (no dispatcher,
 * no event heap, no sampler) so the SIMD arbitration/scoreboard loop is
 * the only thing on the clock. Two kernels bracket the load pattern the
 * SoA layout targets:
 *
 *  - alu: a counted VALU/SALU loop — every SIMD scan finds a ready
 *    wavefront, so the bench measures raw arbitration + issue
 *    throughput over dense ready masks;
 *  - mem: strided FLAT loads — wavefronts park on memory for most
 *    cycles, so scans mostly come up empty and the bench measures the
 *    cost of a wasted scan (the branch-miss path the branchless issue
 *    mask flattens).
 *
 * Variants: tick() (the monitor-capable path), tickFast() (the event
 * core's monitor-free hot path), and tickFast() driven
 * at the CU's next-event hint (skipping the idle cycles the event loop
 * never visits). simdScans()/emptyScans() counters report how many
 * per-SIMD ready scans each run performed and what share found nothing.
 */

#include <chrono>
#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "driver/report.hpp"
#include "func/memory.hpp"
#include "isa/basic_block.hpp"
#include "isa/builder.hpp"
#include "timing/cu.hpp"

using namespace photon;
using namespace photon::isa;

namespace {

ProgramPtr
aluKernel(std::uint32_t iters)
{
    KernelBuilder b("alu");
    b.sMov(3, imm(0));
    Label loop = b.label();
    b.bind(loop);
    b.vAddF32(1, vreg(1), immF(1.0f));
    b.vAddF32(2, vreg(2), immF(1.0f));
    b.sAdd(3, sreg(3), imm(1));
    b.emit(Opcode::S_CMP_LT_U32, {}, sreg(3), imm(iters));
    b.branch(Opcode::S_CBRANCH_SCC1, loop);
    b.endProgram();
    return b.finish();
}

ProgramPtr
memKernel(std::uint32_t iters)
{
    KernelBuilder b("mem");
    b.sMov(3, imm(0));
    b.vMad(1, vreg(0), imm(64), imm(64)); // scattered line per lane
    Label loop = b.label();
    b.bind(loop);
    b.flatLoad(2, 1);
    b.vAddU32(1, vreg(1), imm(64 * 64));
    b.sAdd(3, sreg(3), imm(1));
    b.emit(Opcode::S_CMP_LT_U32, {}, sreg(3), imm(iters));
    b.branch(Opcode::S_CBRANCH_SCC1, loop);
    b.endProgram();
    return b.finish();
}

enum class Drive { Tick, Fast, Hint };

struct RunStats
{
    double wallSeconds = 0.0;
    std::uint64_t insts = 0;
    std::uint64_t scans = 0;
    std::uint64_t emptyScans = 0;
    std::uint64_t cycles = 0;
};

/** Run @p prog on a fresh CU until every wave retires; the timed
 *  region is the tick loop only. */
RunStats
runOnce(const GpuConfig &cfg, const Program &prog, Drive drive,
        std::uint32_t workgroups)
{
    timing::MemorySystem memsys(cfg);
    func::Emulator emu;
    timing::ComputeUnit cu(cfg, 0, memsys, emu);

    func::GlobalMemory mem(64ull << 20);
    mem.allocate(32ull << 20);
    func::LaunchDims dims{workgroups, 4, 0};
    BasicBlockTable bb_table(prog);
    timing::KernelContext ctx;
    ctx.program = &prog;
    ctx.bbTable = &bb_table;
    ctx.dims = &dims;
    ctx.mem = &mem;
    cu.startKernel(ctx);

    RunStats r;
    WorkgroupId next_wg = 0;
    Cycle now = 0;
    auto t0 = std::chrono::steady_clock::now();
    while (next_wg < workgroups || !cu.idle()) {
        while (next_wg < workgroups && cu.canAcceptWorkgroup())
            cu.placeWorkgroup(next_wg++, now);
        switch (drive) {
          case Drive::Tick:
            cu.tick(now);
            ++now;
            break;
          case Drive::Fast:
            cu.tickFast(now);
            ++now;
            break;
          case Drive::Hint: {
            timing::ComputeUnit::TickResult ft = cu.tickFast(now);
            now = (ft.hint == kNoCycle || ft.hint <= now)
                      ? now + 1
                      : ft.hint;
            break;
          }
        }
    }
    auto t1 = std::chrono::steady_clock::now();
    r.wallSeconds = std::chrono::duration<double>(t1 - t0).count();
    r.insts = cu.instsIssued();
    r.scans = cu.simdScans();
    r.emptyScans = cu.emptyScans();
    r.cycles = now;
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = bench::quickMode(argc, argv);
    const std::uint32_t iters = quick ? 200 : 1000;
    const std::uint32_t workgroups = quick ? 32 : 128;
    GpuConfig cfg = GpuConfig::r9Nano();

    driver::printBanner(std::cout, "SIMD issue/scoreboard loop (1 CU)");
    std::printf("%u workgroups x 4 waves, %u loop iterations; per-cycle\n"
                "ticks except the 'hint' rows, which jump to the CU's\n"
                "next-event hint like the event core does\n\n",
                workgroups, iters);

    struct
    {
        const char *kernel;
        ProgramPtr prog;
    } kernels[] = {
        {"alu", aluKernel(iters)},
        {"mem", memKernel(iters)},
    };
    struct
    {
        const char *name;
        Drive drive;
    } drives[] = {
        {"tick", Drive::Tick},
        {"tickFast", Drive::Fast},
        {"hint", Drive::Hint},
    };

    driver::Table table({"kernel", "drive", "cycles", "insts", "wall_s",
                         "Minst/s", "Mscan/s", "empty%"});
    for (const auto &k : kernels) {
        std::uint64_t ref_insts = 0;
        for (const auto &d : drives) {
            (void)runOnce(cfg, *k.prog, d.drive, workgroups); // warm-up
            RunStats r = runOnce(cfg, *k.prog, d.drive, workgroups);
            if (ref_insts == 0)
                ref_insts = r.insts;
            if (r.insts != ref_insts) {
                std::fprintf(stderr,
                             "FAIL: %s/%s issued %llu insts, tick "
                             "issued %llu\n",
                             k.kernel, d.name,
                             static_cast<unsigned long long>(r.insts),
                             static_cast<unsigned long long>(ref_insts));
                return 1;
            }
            double empty =
                r.scans ? 100.0 * static_cast<double>(r.emptyScans) /
                              static_cast<double>(r.scans)
                        : 0.0;
            table.addRow({k.kernel, d.name, std::to_string(r.cycles),
                          std::to_string(r.insts),
                          driver::Table::num(r.wallSeconds, 3),
                          driver::Table::num(r.insts / r.wallSeconds /
                                             1e6),
                          driver::Table::num(r.scans / r.wallSeconds /
                                             1e6),
                          driver::Table::num(empty)});
        }
    }
    table.print(std::cout);
    std::printf(
        "\nalu rows stress dense ready masks (arbitration throughput);\n"
        "mem rows stress empty scans (the waste the hint jump removes).\n"
        "All drives of one kernel must issue identical instruction\n"
        "counts — the scan layout is observability, not semantics.\n");
    return 0;
}
