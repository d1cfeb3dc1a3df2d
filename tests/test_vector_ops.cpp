/** @file Parameterised semantics sweep over the vector ALU. */

#include <array>
#include <bit>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "func/emulator.hpp"
#include "isa/builder.hpp"
#include "sim/rng.hpp"

using namespace photon;
using namespace photon::isa;

namespace {

/** Runs op(dst, a, b) for scalar operands and returns lane 0 of dst. */
std::uint32_t
evalBinary(Opcode op, std::uint32_t a, std::uint32_t b)
{
    KernelBuilder builder("bin");
    builder.vMov(1, imm(static_cast<std::int64_t>(a)));
    builder.vMov(2, imm(static_cast<std::int64_t>(b)));
    builder.emit(op, vreg(3), vreg(1), vreg(2));
    builder.endProgram();
    ProgramPtr prog = builder.finish();

    func::Emulator emu;
    func::GlobalMemory mem(4096 + 64);
    func::WaveState ws;
    ws.init(*prog, func::LaunchDims{1, 1, 0}, 0);
    std::vector<std::uint8_t> lds;
    emu.runWave(*prog, ws, mem, lds);
    return ws.v(3, 0);
}

std::uint32_t
bits(float f)
{
    return std::bit_cast<std::uint32_t>(f);
}

/** gtest names a case after the raw bytes of its parameter, padding
 *  included. `tag` fills the bytes after `op` that were padding, whose
 *  contents were whatever the stack held, so a case's name changed from
 *  build to build; the tags keep the names the suite reports stable. */
using CaseTag = std::array<std::uint8_t, 3>;

struct BinCase
{
    Opcode op;
    CaseTag tag;
    std::uint32_t a, b, expect;
};

class VectorBinary : public ::testing::TestWithParam<BinCase>
{};

} // namespace

TEST_P(VectorBinary, Lane0Semantics)
{
    const BinCase &c = GetParam();
    EXPECT_EQ(evalBinary(c.op, c.a, c.b), c.expect)
        << opcodeName(c.op);
}

INSTANTIATE_TEST_SUITE_P(
    IntegerOps, VectorBinary,
    ::testing::Values(
        BinCase{Opcode::V_ADD_U32, {}, 7, 8, 15},
        BinCase{Opcode::V_ADD_U32, {}, 0xffffffff, 2, 1}, // wraps
        BinCase{Opcode::V_SUB_U32, {}, 3, 5, 0xfffffffe},
        BinCase{Opcode::V_MUL_LO_U32, {0x2d, 0x67, 0x74}, 0x10000,
                0x10000, 0}, // low bits
        BinCase{Opcode::V_LSHL_B32, {0x73, 0x00, 0x73}, 1, 31, 0x80000000},
        BinCase{Opcode::V_LSHL_B32, {}, 1, 33, 2}, // shift amount masked
        BinCase{Opcode::V_LSHR_B32, {}, 0x80000000, 31, 1},
        BinCase{Opcode::V_ASHR_I32, {0x00, 0x01, 0x1b}, 0x80000000, 31,
                0xffffffff},
        BinCase{Opcode::V_AND_B32, {0xff, 0x48, 0x00}, 0xff00ff00, 0x0ff00ff0,
                0x0f000f00},
        BinCase{Opcode::V_OR_B32, {}, 0xf0f0f0f0, 0x0f0f0f0f, 0xffffffff},
        BinCase{Opcode::V_XOR_B32, {}, 0xffff0000, 0xff00ff00, 0x00ffff00},
        BinCase{Opcode::V_MAX_U32, {0x00, 0x01, 0x1b}, 5, 9, 9},
        BinCase{Opcode::V_MIN_U32, {0xda, 0x48, 0x00}, 5, 9, 5}));

INSTANTIATE_TEST_SUITE_P(
    FloatOps, VectorBinary,
    ::testing::Values(
        BinCase{Opcode::V_ADD_F32, {}, bits(1.5f), bits(2.25f), bits(3.75f)},
        BinCase{Opcode::V_SUB_F32, {}, bits(1.0f), bits(4.0f), bits(-3.0f)},
        BinCase{Opcode::V_MUL_F32, {}, bits(3.0f), bits(-2.0f), bits(-6.0f)},
        BinCase{Opcode::V_MAX_F32, {0xfd, 0xa7, 0x39}, bits(-1.0f), bits(2.0f),
                bits(2.0f)},
        BinCase{Opcode::V_MIN_F32, {0x4c, 0xaa, 0x43}, bits(-1.0f), bits(2.0f),
                bits(-1.0f)}));

namespace {

/** `tag` and `tail` fill the padding around `op` and `expect`, as in
 *  BinCase. */
struct CmpCase
{
    Opcode op;
    CaseTag tag;
    std::uint32_t a, b;
    bool expect;
    CaseTag tail;
};

class VectorCompare : public ::testing::TestWithParam<CmpCase>
{};

} // namespace

TEST_P(VectorCompare, Lane0VccBit)
{
    const CmpCase &c = GetParam();
    KernelBuilder builder("cmp");
    builder.vMov(1, imm(static_cast<std::int64_t>(c.a)));
    builder.vMov(2, imm(static_cast<std::int64_t>(c.b)));
    builder.emit(c.op, {}, vreg(1), vreg(2));
    builder.endProgram();
    ProgramPtr prog = builder.finish();
    func::Emulator emu;
    func::GlobalMemory mem(4096 + 64);
    func::WaveState ws;
    ws.init(*prog, func::LaunchDims{1, 1, 0}, 0);
    std::vector<std::uint8_t> lds;
    emu.runWave(*prog, ws, mem, lds);
    EXPECT_EQ((ws.vcc & 1) != 0, c.expect) << opcodeName(c.op);
}

INSTANTIATE_TEST_SUITE_P(
    AllCompares, VectorCompare,
    ::testing::Values(
        CmpCase{Opcode::V_CMP_LT_U32, {}, 1, 2, true, {0x55, 0x00, 0x00}},
        CmpCase{Opcode::V_CMP_GE_U32, {}, 2, 2, true, {0x55, 0x00, 0x00}},
        CmpCase{Opcode::V_CMP_EQ_U32, {0xfd, 0xa7, 0x39}, 3, 3, true,
                {0x7f, 0x00, 0x00}},
        CmpCase{Opcode::V_CMP_NE_U32, {0x17, 0xa8, 0x39}, 3, 3, false,
                {0xba, 0x54, 0x80}},
        // Signed: -1 < 1 but 0xffffffff > 1 unsigned.
        CmpCase{Opcode::V_CMP_LT_I32, {0xfd, 0xa7, 0x39}, 0xffffffff, 1, true,
                {0xba, 0x54, 0x80}},
        CmpCase{Opcode::V_CMP_LT_U32, {}, 0xffffffff, 1, false,
                {0xff, 0xff, 0xff}},
        CmpCase{Opcode::V_CMP_GE_I32, {}, 0, 0xffffffff, true,
                {0x55, 0x00, 0x00}},
        CmpCase{Opcode::V_CMP_LT_F32, {}, bits(-2.5f), bits(1.0f), true,
                {0x55, 0x00, 0x00}},
        CmpCase{Opcode::V_CMP_GT_F32, {0xfd, 0xa7, 0x39}, bits(-2.5f),
                bits(1.0f), false, {0x7f, 0x00, 0x00}},
        CmpCase{Opcode::V_CMP_GE_F32, {0x4c, 0xaa, 0x43}, bits(1.0f),
                bits(1.0f), true, {0x55, 0x00, 0x00}}));

namespace {

/** Property: for any per-lane address pattern, coalesced lines cover
 *  exactly the distinct lines and nothing else. */
void
coalesceProperty(std::uint32_t stride, std::uint32_t offset)
{
    func::GlobalMemory mem(16 << 20);
    Addr base = mem.allocate(8 << 20);
    KernelBuilder b("coalesce");
    b.vMad(1, vreg(0), imm(stride),
           imm(static_cast<std::int64_t>(base + offset)));
    b.flatLoad(2, 1);
    b.endProgram();
    ProgramPtr prog = b.finish();

    func::Emulator emu;
    func::WaveState ws;
    ws.init(*prog, func::LaunchDims{1, 1, 0}, 0);
    func::StepResult res;
    std::vector<std::uint8_t> lds;
    emu.step(*prog, ws, mem, lds, res); // vMad
    emu.step(*prog, ws, mem, lds, res); // load

    std::set<Addr> expect;
    for (unsigned lane = 0; lane < 64; ++lane)
        expect.insert((base + offset + std::uint64_t{lane} * stride) / 64);
    std::set<Addr> got(res.lines.begin(),
                       res.lines.begin() + res.numLines);
    EXPECT_EQ(got, expect) << "stride " << stride << " offset " << offset;
    EXPECT_EQ(res.numLines, expect.size());
}

} // namespace

TEST(Coalescing, PropertyAcrossStridesAndOffsets)
{
    for (std::uint32_t stride : {0u, 4u, 8u, 12u, 60u, 64u, 68u, 256u,
                                 1024u, 4096u}) {
        for (std::uint32_t offset : {0u, 4u, 60u})
            coalesceProperty(stride, offset);
    }
}

/** A gather's lines come out distinct and strictly ascending — the
 *  order the timing model probes them in — for lanes in random order
 *  with repeats, on both sides of every coalescing path's span limit
 *  (one line, the bitmap's 4096-line span, and the sorted wide case). */
TEST(Coalescing, GatherLinesAreDistinctAndAscending)
{
    for (std::uint32_t span : {1u, 2u, 63u, 64u, 65u, 1000u, 4095u, 4096u,
                               4097u, 50000u}) {
        for (std::uint64_t seed : {1u, 2u, 3u}) {
            func::GlobalMemory mem(16 << 20);
            Addr idx = mem.allocate(64 * 4);
            Addr data = mem.allocate(8 << 20);
            Rng rng(seed * 977 + span);
            std::array<std::uint32_t, 64> addr{};
            for (unsigned lane = 0; lane < 64; ++lane) {
                std::uint64_t line = lane == 0   ? 0
                                     : lane == 1 ? span - 1
                                                 : rng.nextBelow(span);
                addr[lane] = static_cast<std::uint32_t>(
                    data + line * 64 + rng.nextBelow(16) * 4);
                if (lane > 1 && rng.nextBelow(4) == 0)
                    addr[lane] = addr[rng.nextBelow(lane)];
                mem.write32(idx + lane * 4, addr[lane]);
            }

            KernelBuilder b("gather");
            b.vMad(1, vreg(0), imm(4), imm(static_cast<std::int64_t>(idx)));
            b.flatLoad(2, 1); // per-lane addresses
            b.flatLoad(3, 2); // the gather under test
            b.endProgram();
            ProgramPtr prog = b.finish();
            func::Emulator emu;
            func::WaveState ws;
            ws.init(*prog, func::LaunchDims{1, 1, 0}, 0);
            func::StepResult res;
            std::vector<std::uint8_t> lds;
            for (int i = 0; i < 3; ++i)
                emu.step(*prog, ws, mem, lds, res);

            std::set<Addr> expect;
            for (std::uint32_t a : addr)
                expect.insert(a / 64);
            std::vector<Addr> got(res.lines.begin(),
                                  res.lines.begin() + res.numLines);
            EXPECT_EQ(got, std::vector<Addr>(expect.begin(), expect.end()))
                << "span " << span << " seed " << seed;
        }
    }
}

TEST(Coalescing, MaskedLanesContributeNothing)
{
    func::GlobalMemory mem(1 << 20);
    Addr base = mem.allocate(64 * 64);
    KernelBuilder b("masked");
    b.vMad(1, vreg(0), imm(64), imm(static_cast<std::int64_t>(base)));
    b.emit(Opcode::V_CMP_LT_U32, {}, vreg(0), imm(3));
    b.emit(Opcode::S_AND_MASK, mreg(kMaskExec), mreg(kMaskExec),
           mreg(kMaskVcc));
    b.flatLoad(2, 1);
    b.endProgram();
    ProgramPtr prog = b.finish();
    func::Emulator emu;
    func::WaveState ws;
    ws.init(*prog, func::LaunchDims{1, 1, 0}, 0);
    func::StepResult res;
    std::vector<std::uint8_t> lds;
    for (int i = 0; i < 4; ++i)
        emu.step(*prog, ws, mem, lds, res);
    EXPECT_EQ(res.numLines, 3u); // only lanes 0..2, one line each
    EXPECT_EQ(res.activeLanes, 3u);
}
