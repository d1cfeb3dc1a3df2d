/**
 * @file
 * A kernel program: an immutable instruction list plus resource metadata
 * and a pre-decoded execution stream. Decoding — the functional-unit
 * lookup — happens once at construction, so the per-issue hot path
 * indexes one flat array instead of chasing the opcode table.
 */

#ifndef PHOTON_ISA_PROGRAM_HPP
#define PHOTON_ISA_PROGRAM_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "isa/instruction.hpp"
#include "isa/opcode.hpp"

namespace photon::isa {

/** Register-file and LDS limits enforced on programs. */
inline constexpr unsigned kMaxSgprs = 32;
inline constexpr unsigned kMaxVgprs = 32;
inline constexpr unsigned kMaxMaskRegs = 4;

/**
 * One pre-decoded instruction: the operands (copied for locality) plus
 * everything the timing model would otherwise re-derive per issue.
 */
struct DecodedInst
{
    Instruction inst;
    FuncUnit unit = FuncUnit::SALU;
};

/**
 * An executable GPU kernel. Produced by KernelBuilder; shared (immutable)
 * between launches via shared_ptr.
 */
class Program
{
  public:
    Program(std::string name, std::vector<Instruction> code,
            std::uint32_t num_sgprs, std::uint32_t num_vgprs,
            std::uint32_t lds_bytes);

    const std::string &name() const { return name_; }
    const std::vector<Instruction> &code() const { return code_; }
    const Instruction &at(std::uint32_t pc) const { return code_[pc]; }
    std::uint32_t size() const
    {
        return static_cast<std::uint32_t>(code_.size());
    }

    /** The pre-decoded execution stream, one entry per PC. */
    const std::vector<DecodedInst> &decoded() const { return decoded_; }
    const DecodedInst &decodedAt(std::uint32_t pc) const
    {
        return decoded_[pc];
    }

    /** Highest scalar register index used, plus one. */
    std::uint32_t numSgprs() const { return numSgprs_; }
    /** Highest vector register index used, plus one. */
    std::uint32_t numVgprs() const { return numVgprs_; }
    /** Static LDS allocation per workgroup in bytes. */
    std::uint32_t ldsBytes() const { return ldsBytes_; }

    /** Content hash over the instruction list (FNV-1a, computed at
     *  construction): two programs with identical code hash equally
     *  regardless of name. Keys the functional trace cache. */
    std::uint64_t codeHash() const { return codeHash_; }

    /** Validate register indices and branch targets; panics on errors. */
    void validate() const;

  private:
    /** Build decoded_ (operand copy + unit lookup). */
    void decode();

    std::string name_;
    std::vector<Instruction> code_;
    std::vector<DecodedInst> decoded_;
    std::uint32_t numSgprs_;
    std::uint32_t numVgprs_;
    std::uint32_t ldsBytes_;
    std::uint64_t codeHash_ = 0;
};

using ProgramPtr = std::shared_ptr<const Program>;

} // namespace photon::isa

#endif // PHOTON_ISA_PROGRAM_HPP
