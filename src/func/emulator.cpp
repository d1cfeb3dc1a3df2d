#include "func/emulator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "sim/log.hpp"

/** Assert to the vectorizer that a lane loop carries no cross-iteration
 *  dependency (VGPR rows either coincide exactly or are disjoint, so
 *  element-wise updates are always safe). No-op off GCC. */
#if defined(__GNUC__) && !defined(__clang__)
#define PHOTON_IVDEP _Pragma("GCC ivdep")
#else
#define PHOTON_IVDEP
#endif

namespace photon::func {

using isa::Opcode;
using isa::Operand;
using isa::OperandKind;

namespace {

float
asF(std::uint32_t bits)
{
    return std::bit_cast<float>(bits);
}

std::uint32_t
asU(float v)
{
    return std::bit_cast<std::uint32_t>(v);
}

/** Lines a gather may span and still be coalesced by the two-level
 *  bitmap: 64 leaf words of 64 bits. */
constexpr Addr kBitmapSpan = Addr{64} * 64;

/** Coalesce the per-lane line addresses gathered in @p out.lines[0..n)
 *  into the distinct set, in ascending order (the order the timing
 *  model probes them). @p lo / @p hi are the minimum and maximum of
 *  those lines, computed by the caller inside its gather loop (fusing
 *  the scan the general case would otherwise repeat). A uniform row is
 *  one line; rows within kBitmapSpan lines (small strides and gathers
 *  over up to 256 KB) dedup and order through a two-level bitmap with
 *  no comparison sort; only wider gathers sort. */
void
coalesceLines(StepResult &out, std::uint32_t n, Addr lo, Addr hi)
{
    if (n == 0) {
        out.numLines = 0;
        return;
    }
    if (lo == hi) {
        out.lines[0] = lo;
        out.numLines = 1;
        return;
    }
    if (hi - lo < kBitmapSpan) {
        // Bit (off & 63) of leaf word (off >> 6) marks line lo + off;
        // bit w of `used` marks leaf word w as non-empty. Walking the
        // set bits low to high yields the distinct lines in order.
        std::uint64_t leaf[kBitmapSpan / 64] = {};
        std::uint64_t used = 0;
        for (std::uint32_t i = 0; i < n; ++i) {
            const Addr off = out.lines[i] - lo;
            leaf[off >> 6] |= std::uint64_t{1} << (off & 63);
            used |= std::uint64_t{1} << (off >> 6);
        }
        std::uint32_t count = 0;
        while (used) {
            const std::uint32_t w =
                static_cast<std::uint32_t>(std::countr_zero(used));
            used &= used - 1;
            const Addr word_base = lo + Addr{w} * 64;
            for (std::uint64_t m = leaf[w]; m; m &= m - 1)
                out.lines[count++] = word_base + std::countr_zero(m);
        }
        out.numLines = count;
        return;
    }
    std::sort(out.lines.begin(), out.lines.begin() + n);
    auto last = std::unique(out.lines.begin(), out.lines.begin() + n);
    out.numLines =
        static_cast<std::uint32_t>(last - out.lines.begin());
}

} // namespace

std::uint32_t
Emulator::readScalar(const WaveState &ws, const Operand &o) const
{
    switch (o.kind) {
      case OperandKind::SReg:
        return ws.sgpr[o.value];
      case OperandKind::Imm:
        return static_cast<std::uint32_t>(o.value);
      default:
        panic("scalar operand expected");
    }
}

std::uint64_t
Emulator::readMaskOperand(const WaveState &ws, std::int32_t idx) const
{
    switch (idx) {
      case isa::kMaskVcc:
        return ws.vcc;
      case isa::kMaskExec:
        return ws.exec;
      case isa::kMaskAllOnes:
        return ~std::uint64_t{0};
      default:
        return ws.maskRegs[idx];
    }
}

void
Emulator::writeMaskOperand(WaveState &ws, std::int32_t idx,
                           std::uint64_t value) const
{
    switch (idx) {
      case isa::kMaskVcc:
        ws.vcc = value;
        break;
      case isa::kMaskExec:
        ws.exec = value;
        break;
      case isa::kMaskAllOnes:
        panic("cannot write the all-ones mask constant");
      default:
        ws.maskRegs[idx] = value;
        break;
    }
}

void
Emulator::step(const isa::Program &program, WaveState &ws,
               GlobalMemory &mem, std::vector<std::uint8_t> &lds,
               StepResult &out) const
{
    PHOTON_ASSERT(!ws.done, "stepping a finished wavefront");
    const isa::DecodedInst &dec = program.decodedAt(ws.pc);
    const isa::Instruction &inst = dec.inst;

    out.op = inst.op;
    out.unit = dec.unit;
    out.done = false;
    out.barrier = false;
    out.branchTaken = false;
    out.ldsAccesses = 0;
    out.linesWrite = false;
    out.numLines = 0;
    out.activeLanes = static_cast<std::uint32_t>(std::popcount(ws.exec));

    std::uint32_t next_pc = ws.pc + 1;

    constexpr std::uint64_t kFullExec = ~std::uint64_t{0};

    // Iterate the set bits of EXEC: a fully-active wavefront takes a
    // plain counted loop (no countr_zero dependency chain); partially
    // active ones walk set bits so inactive lanes cost nothing.
    auto for_active = [&](auto fn) {
        if (ws.exec == kFullExec) {
            for (std::uint32_t lane = 0; lane < kWavefrontLanes; ++lane)
                fn(lane);
        } else {
            for (std::uint64_t m = ws.exec; m; m &= m - 1)
                fn(static_cast<std::uint32_t>(std::countr_zero(m)));
        }
    };

    // Per-lane vector operand reader: VGPR operands point straight into
    // the register file; scalars/immediates are splat once into a lane
    // buffer so every per-lane read is a plain indexed load, keeping the
    // ALU loops branch-free and vectorizable.
    alignas(64) std::uint32_t splat[3][kWavefrontLanes];
    std::uint32_t nsplat = 0;
    auto src_of = [&](const Operand &o) -> const std::uint32_t * {
        if (o.kind == OperandKind::VReg)
            return &ws.vgpr[std::size_t{
                                static_cast<std::uint32_t>(o.value)} *
                            kWavefrontLanes];
        std::uint32_t v = readScalar(ws, o);
        std::uint32_t *p = splat[nsplat++];
        for (std::uint32_t lane = 0; lane < kWavefrontLanes; ++lane)
            p[lane] = v;
        return p;
    };
    auto dst_of = [&](const Operand &o) {
        return &ws.vgpr[std::size_t{static_cast<std::uint32_t>(o.value)} *
                        kWavefrontLanes];
    };

    // Element-wise vector op over the active lanes: d[lane] = fn(lane).
    // Distinct VGPR rows are disjoint and a repeated row coincides
    // exactly, so dst/src aliasing is always element-wise safe — ivdep
    // lets the vectorizer skip the overlap check it cannot prove.
    auto vlanes = [&](std::uint32_t *d, auto fn) {
        if (ws.exec == kFullExec) {
            PHOTON_IVDEP
            for (std::uint32_t lane = 0; lane < kWavefrontLanes; ++lane)
                d[lane] = fn(lane);
        } else {
            for (std::uint64_t m = ws.exec; m; m &= m - 1) {
                std::uint32_t lane =
                    static_cast<std::uint32_t>(std::countr_zero(m));
                d[lane] = fn(lane);
            }
        }
    };

    // Vector ALU helper: applies fn over active lanes into dst.
    auto vop1 = [&](auto fn) {
        const std::uint32_t *a = src_of(inst.src0);
        vlanes(dst_of(inst.dst),
               [&](std::uint32_t lane) { return fn(a[lane]); });
    };
    auto vop2 = [&](auto fn) {
        const std::uint32_t *a = src_of(inst.src0),
                            *b = src_of(inst.src1);
        vlanes(dst_of(inst.dst),
               [&](std::uint32_t lane) { return fn(a[lane], b[lane]); });
    };
    auto vop3 = [&](auto fn) {
        const std::uint32_t *a = src_of(inst.src0),
                            *b = src_of(inst.src1),
                            *c = src_of(inst.src2);
        vlanes(dst_of(inst.dst), [&](std::uint32_t lane) {
            return fn(a[lane], b[lane], c[lane]);
        });
    };
    // Vector compare helper: writes a fresh VCC over active lanes.
    auto vcmp = [&](auto pred) {
        const std::uint32_t *a = src_of(inst.src0),
                            *b = src_of(inst.src1);
        std::uint64_t vcc = 0;
        for_active([&](std::uint32_t lane) {
            vcc |= std::uint64_t{pred(a[lane], b[lane]) ? 1u : 0u}
                   << lane;
        });
        ws.vcc = vcc;
    };

    auto s0 = [&] { return readScalar(ws, inst.src0); };
    auto s1 = [&] { return readScalar(ws, inst.src1); };

    switch (inst.op) {
      // ---------------- Scalar ALU ----------------
      case Opcode::S_MOV_B32:
        ws.sgpr[inst.dst.value] = s0();
        break;
      case Opcode::S_ADD_U32:
        ws.sgpr[inst.dst.value] = s0() + s1();
        break;
      case Opcode::S_SUB_U32:
        ws.sgpr[inst.dst.value] = s0() - s1();
        break;
      case Opcode::S_MUL_U32:
        ws.sgpr[inst.dst.value] = s0() * s1();
        break;
      case Opcode::S_LSHL_B32:
        ws.sgpr[inst.dst.value] = s0() << (s1() & 31);
        break;
      case Opcode::S_LSHR_B32:
        ws.sgpr[inst.dst.value] = s0() >> (s1() & 31);
        break;
      case Opcode::S_AND_B32:
        ws.sgpr[inst.dst.value] = s0() & s1();
        break;
      case Opcode::S_OR_B32:
        ws.sgpr[inst.dst.value] = s0() | s1();
        break;
      case Opcode::S_XOR_B32:
        ws.sgpr[inst.dst.value] = s0() ^ s1();
        break;
      case Opcode::S_MIN_U32:
        ws.sgpr[inst.dst.value] = std::min(s0(), s1());
        break;
      case Opcode::S_MAX_U32:
        ws.sgpr[inst.dst.value] = std::max(s0(), s1());
        break;
      case Opcode::S_CMP_LT_U32:
        ws.scc = s0() < s1();
        break;
      case Opcode::S_CMP_LE_U32:
        ws.scc = s0() <= s1();
        break;
      case Opcode::S_CMP_GT_U32:
        ws.scc = s0() > s1();
        break;
      case Opcode::S_CMP_GE_U32:
        ws.scc = s0() >= s1();
        break;
      case Opcode::S_CMP_EQ_U32:
        ws.scc = s0() == s1();
        break;
      case Opcode::S_CMP_NE_U32:
        ws.scc = s0() != s1();
        break;

      // ---------------- Mask ops ----------------
      case Opcode::S_MOV_MASK:
        writeMaskOperand(ws, inst.dst.value,
                         readMaskOperand(ws, inst.src0.value));
        break;
      case Opcode::S_AND_MASK:
        writeMaskOperand(ws, inst.dst.value,
                         readMaskOperand(ws, inst.src0.value) &
                             readMaskOperand(ws, inst.src1.value));
        break;
      case Opcode::S_OR_MASK:
        writeMaskOperand(ws, inst.dst.value,
                         readMaskOperand(ws, inst.src0.value) |
                             readMaskOperand(ws, inst.src1.value));
        break;
      case Opcode::S_ANDN2_MASK:
        writeMaskOperand(ws, inst.dst.value,
                         readMaskOperand(ws, inst.src0.value) &
                             ~readMaskOperand(ws, inst.src1.value));
        break;

      // ---------------- Control flow ----------------
      case Opcode::S_BRANCH:
        out.branchTaken = true;
        next_pc = inst.target;
        break;
      case Opcode::S_CBRANCH_SCC0:
        if (!ws.scc) {
            out.branchTaken = true;
            next_pc = inst.target;
        }
        break;
      case Opcode::S_CBRANCH_SCC1:
        if (ws.scc) {
            out.branchTaken = true;
            next_pc = inst.target;
        }
        break;
      case Opcode::S_CBRANCH_VCCZ:
        if (ws.vcc == 0) {
            out.branchTaken = true;
            next_pc = inst.target;
        }
        break;
      case Opcode::S_CBRANCH_VCCNZ:
        if (ws.vcc != 0) {
            out.branchTaken = true;
            next_pc = inst.target;
        }
        break;
      case Opcode::S_CBRANCH_EXECZ:
        if (ws.exec == 0) {
            out.branchTaken = true;
            next_pc = inst.target;
        }
        break;
      case Opcode::S_CBRANCH_EXECNZ:
        if (ws.exec != 0) {
            out.branchTaken = true;
            next_pc = inst.target;
        }
        break;
      case Opcode::S_BARRIER:
        out.barrier = true;
        break;
      case Opcode::S_WAITCNT:
      case Opcode::S_NOP:
        break;
      case Opcode::S_ENDPGM:
        ws.done = true;
        out.done = true;
        break;

      // ---------------- Scalar memory ----------------
      case Opcode::S_LOAD_DWORD: {
        Addr addr = s0() + static_cast<std::uint32_t>(inst.src1.value);
        ws.sgpr[inst.dst.value] = mem.read32(addr);
        out.lines[0] = addr / kLineBytes;
        out.numLines = 1;
        break;
      }

      // ---------------- Vector ALU ----------------
      case Opcode::V_MOV_B32:
        vop1([](std::uint32_t a) { return a; });
        break;
      case Opcode::V_ADD_U32:
        vop2([](std::uint32_t a, std::uint32_t b) { return a + b; });
        break;
      case Opcode::V_SUB_U32:
        vop2([](std::uint32_t a, std::uint32_t b) { return a - b; });
        break;
      case Opcode::V_MUL_LO_U32:
        vop2([](std::uint32_t a, std::uint32_t b) { return a * b; });
        break;
      case Opcode::V_MAD_U32:
        vop3([](std::uint32_t a, std::uint32_t b, std::uint32_t c) {
            return a * b + c;
        });
        break;
      case Opcode::V_LSHL_B32:
        vop2([](std::uint32_t a, std::uint32_t b) { return a << (b & 31); });
        break;
      case Opcode::V_LSHR_B32:
        vop2([](std::uint32_t a, std::uint32_t b) { return a >> (b & 31); });
        break;
      case Opcode::V_ASHR_I32:
        vop2([](std::uint32_t a, std::uint32_t b) {
            return static_cast<std::uint32_t>(
                static_cast<std::int32_t>(a) >> (b & 31));
        });
        break;
      case Opcode::V_AND_B32:
        vop2([](std::uint32_t a, std::uint32_t b) { return a & b; });
        break;
      case Opcode::V_OR_B32:
        vop2([](std::uint32_t a, std::uint32_t b) { return a | b; });
        break;
      case Opcode::V_XOR_B32:
        vop2([](std::uint32_t a, std::uint32_t b) { return a ^ b; });
        break;
      case Opcode::V_ADD_F32:
        vop2([](std::uint32_t a, std::uint32_t b) {
            return asU(asF(a) + asF(b));
        });
        break;
      case Opcode::V_SUB_F32:
        vop2([](std::uint32_t a, std::uint32_t b) {
            return asU(asF(a) - asF(b));
        });
        break;
      case Opcode::V_MUL_F32:
        vop2([](std::uint32_t a, std::uint32_t b) {
            return asU(asF(a) * asF(b));
        });
        break;
      case Opcode::V_MAC_F32: {
        const std::uint32_t *a = src_of(inst.src0),
                            *b = src_of(inst.src1);
        std::uint32_t *d = dst_of(inst.dst);
        vlanes(d, [&](std::uint32_t lane) {
            return asU(asF(d[lane]) + asF(a[lane]) * asF(b[lane]));
        });
        break;
      }
      case Opcode::V_FMA_F32:
        vop3([](std::uint32_t a, std::uint32_t b, std::uint32_t c) {
            return asU(std::fma(asF(a), asF(b), asF(c)));
        });
        break;
      case Opcode::V_MAX_F32:
        vop2([](std::uint32_t a, std::uint32_t b) {
            return asU(std::max(asF(a), asF(b)));
        });
        break;
      case Opcode::V_MIN_F32:
        vop2([](std::uint32_t a, std::uint32_t b) {
            return asU(std::min(asF(a), asF(b)));
        });
        break;
      case Opcode::V_MAX_U32:
        vop2([](std::uint32_t a, std::uint32_t b) {
            return std::max(a, b);
        });
        break;
      case Opcode::V_MIN_U32:
        vop2([](std::uint32_t a, std::uint32_t b) {
            return std::min(a, b);
        });
        break;
      case Opcode::V_RCP_F32:
        vop1([](std::uint32_t a) { return asU(1.0f / asF(a)); });
        break;
      case Opcode::V_SQRT_F32:
        vop1([](std::uint32_t a) { return asU(std::sqrt(asF(a))); });
        break;
      case Opcode::V_CVT_F32_U32:
        vop1([](std::uint32_t a) {
            return asU(static_cast<float>(a));
        });
        break;
      case Opcode::V_CVT_F32_I32:
        vop1([](std::uint32_t a) {
            return asU(static_cast<float>(static_cast<std::int32_t>(a)));
        });
        break;
      case Opcode::V_CVT_U32_F32:
        vop1([](std::uint32_t a) {
            return static_cast<std::uint32_t>(asF(a));
        });
        break;
      case Opcode::V_CMP_LT_U32:
        vcmp([](std::uint32_t a, std::uint32_t b) { return a < b; });
        break;
      case Opcode::V_CMP_GE_U32:
        vcmp([](std::uint32_t a, std::uint32_t b) { return a >= b; });
        break;
      case Opcode::V_CMP_EQ_U32:
        vcmp([](std::uint32_t a, std::uint32_t b) { return a == b; });
        break;
      case Opcode::V_CMP_NE_U32:
        vcmp([](std::uint32_t a, std::uint32_t b) { return a != b; });
        break;
      case Opcode::V_CMP_LT_I32:
        vcmp([](std::uint32_t a, std::uint32_t b) {
            return static_cast<std::int32_t>(a) <
                   static_cast<std::int32_t>(b);
        });
        break;
      case Opcode::V_CMP_GE_I32:
        vcmp([](std::uint32_t a, std::uint32_t b) {
            return static_cast<std::int32_t>(a) >=
                   static_cast<std::int32_t>(b);
        });
        break;
      case Opcode::V_CMP_LT_F32:
        vcmp([](std::uint32_t a, std::uint32_t b) {
            return asF(a) < asF(b);
        });
        break;
      case Opcode::V_CMP_GT_F32:
        vcmp([](std::uint32_t a, std::uint32_t b) {
            return asF(a) > asF(b);
        });
        break;
      case Opcode::V_CMP_GE_F32:
        vcmp([](std::uint32_t a, std::uint32_t b) {
            return asF(a) >= asF(b);
        });
        break;
      case Opcode::V_CNDMASK_B32: {
        const std::uint32_t *a = src_of(inst.src0),
                            *b = src_of(inst.src1);
        const std::uint64_t vcc = ws.vcc;
        vlanes(dst_of(inst.dst), [&](std::uint32_t lane) {
            return ((vcc >> lane) & 1) ? b[lane] : a[lane];
        });
        break;
      }

      // ---------------- Vector memory ----------------
      case Opcode::FLAT_LOAD_DWORD: {
        // Fully-active wavefronts classify the lane-address shape in one
        // vectorizable pass: uniform rows broadcast a single load,
        // stride-4 rows turn into one block copy, and irregular gathers
        // still hoist the bounds check out of the lane loop. The line
        // set each path produces is exactly what coalesceLines would
        // compute from the per-lane start addresses.
        const std::uint32_t *ap = dst_of(inst.src0);
        std::uint32_t *dp = dst_of(inst.dst);
        if (ws.exec == kFullExec) {
            std::uint32_t alo = ap[0], ahi = ap[0];
            bool contig = true;
            for (std::uint32_t lane = 0; lane < kWavefrontLanes; ++lane) {
                std::uint32_t a = ap[lane];
                alo = std::min(alo, a);
                ahi = std::max(ahi, a);
                contig &= a == ap[0] + 4 * lane;
            }
            if (alo == ahi) {
                std::uint32_t v = mem.read32(alo);
                PHOTON_IVDEP
                for (std::uint32_t lane = 0; lane < kWavefrontLanes;
                     ++lane)
                    dp[lane] = v;
                out.lines[0] = Addr{alo} / kLineBytes;
                out.numLines = 1;
            } else if (contig) {
                mem.readBlock(alo, dp, kWavefrontLanes * 4u);
                const Addr first = Addr{alo} / kLineBytes;
                const Addr last = Addr{ahi} / kLineBytes;
                std::uint32_t n = 0;
                for (Addr line = first; line <= last; ++line)
                    out.lines[n++] = line;
                out.numLines = n;
            } else {
                const std::uint8_t *base =
                    mem.span(alo, std::uint64_t{ahi} - alo + 4);
                std::uint32_t n = 0;
                Addr lo = ~Addr{0}, hi = 0;
                for (std::uint32_t lane = 0; lane < kWavefrontLanes;
                     ++lane) {
                    std::uint32_t addr = ap[lane];
                    std::memcpy(&dp[lane], base + (addr - alo), 4);
                    Addr line = Addr{addr} / kLineBytes;
                    lo = std::min(lo, line);
                    hi = std::max(hi, line);
                    out.lines[n++] = line;
                }
                coalesceLines(out, n, lo, hi);
            }
        } else {
            std::uint32_t n = 0;
            Addr lo = ~Addr{0}, hi = 0;
            for_active([&](std::uint32_t lane) {
                Addr addr = ap[lane];
                dp[lane] = mem.read32(addr);
                Addr line = addr / kLineBytes;
                lo = std::min(lo, line);
                hi = std::max(hi, line);
                out.lines[n++] = line;
            });
            coalesceLines(out, n, lo, hi);
        }
        break;
      }
      case Opcode::FLAT_STORE_DWORD: {
        const std::uint32_t *ap = dst_of(inst.src0);
        const std::uint32_t *vp = src_of(inst.src1);
        if (ws.exec == kFullExec) {
            std::uint32_t alo = ap[0], ahi = ap[0];
            bool contig = true;
            for (std::uint32_t lane = 0; lane < kWavefrontLanes; ++lane) {
                std::uint32_t a = ap[lane];
                alo = std::min(alo, a);
                ahi = std::max(ahi, a);
                contig &= a == ap[0] + 4 * lane;
            }
            if (alo == ahi) {
                // All lanes hit one address; the last lane's write wins,
                // exactly as in the per-lane loop.
                mem.write32(alo, vp[kWavefrontLanes - 1]);
                out.lines[0] = Addr{alo} / kLineBytes;
                out.numLines = 1;
            } else if (contig) {
                mem.writeBlock(alo, vp, kWavefrontLanes * 4u);
                const Addr first = Addr{alo} / kLineBytes;
                const Addr last = Addr{ahi} / kLineBytes;
                std::uint32_t n = 0;
                for (Addr line = first; line <= last; ++line)
                    out.lines[n++] = line;
                out.numLines = n;
            } else {
                std::uint32_t n = 0;
                Addr lo = ~Addr{0}, hi = 0;
                for (std::uint32_t lane = 0; lane < kWavefrontLanes;
                     ++lane) {
                    Addr addr = ap[lane];
                    mem.write32(addr, vp[lane]);
                    Addr line = addr / kLineBytes;
                    lo = std::min(lo, line);
                    hi = std::max(hi, line);
                    out.lines[n++] = line;
                }
                coalesceLines(out, n, lo, hi);
            }
        } else {
            std::uint32_t n = 0;
            Addr lo = ~Addr{0}, hi = 0;
            for_active([&](std::uint32_t lane) {
                Addr addr = ap[lane];
                mem.write32(addr, vp[lane]);
                Addr line = addr / kLineBytes;
                lo = std::min(lo, line);
                hi = std::max(hi, line);
                out.lines[n++] = line;
            });
            coalesceLines(out, n, lo, hi);
        }
        out.linesWrite = true;
        break;
      }

      // ---------------- LDS ----------------
      case Opcode::DS_READ_B32: {
        const std::uint32_t *ap = dst_of(inst.src0);
        std::uint32_t *dp = dst_of(inst.dst);
        const std::uint8_t *base = lds.data();
        const std::size_t lds_size = lds.size();
        for_active([&](std::uint32_t lane) {
            std::uint32_t addr = ap[lane];
            PHOTON_ASSERT(addr + 4 <= lds_size, "LDS read OOB");
            std::uint32_t value;
            std::memcpy(&value, base + addr, 4);
            dp[lane] = value;
        });
        out.ldsAccesses = out.activeLanes;
        break;
      }
      case Opcode::DS_WRITE_B32: {
        const std::uint32_t *ap = dst_of(inst.src0);
        const std::uint32_t *vp = src_of(inst.src1);
        std::uint8_t *base = lds.data();
        const std::size_t lds_size = lds.size();
        for_active([&](std::uint32_t lane) {
            std::uint32_t addr = ap[lane];
            PHOTON_ASSERT(addr + 4 <= lds_size, "LDS write OOB");
            std::uint32_t value = vp[lane];
            std::memcpy(base + addr, &value, 4);
        });
        out.ldsAccesses = out.activeLanes;
        break;
      }

      case Opcode::NUM_OPCODES:
        panic("invalid opcode");
    }

    ws.pc = next_pc;
}

std::uint64_t
Emulator::runWave(const isa::Program &program, WaveState &ws,
                  GlobalMemory &mem, std::vector<std::uint8_t> &lds) const
{
    StepResult res;
    std::uint64_t count = 0;
    while (!ws.done) {
        step(program, ws, mem, lds, res);
        ++count;
    }
    return count;
}

} // namespace photon::func
