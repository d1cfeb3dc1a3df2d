#include "timing/dram.hpp"

#include <bit>

#include "sim/log.hpp"

namespace photon::timing {

Dram::Dram(const DramConfig &cfg)
    : cfg_(cfg), bankMask_(cfg.numBanks - 1), bankFree_(cfg.numBanks, 0)
{
    PHOTON_ASSERT(std::has_single_bit(cfg.numBanks),
                  "DRAM bank count must be a power of two");
}

Cycle
Dram::access(std::uint64_t lineAddr, Cycle now)
{
    const std::uint64_t bank = lineAddr & bankMask_;
    Cycle start = now > bankFree_[bank] ? now : bankFree_[bank];
    queueingCycles_ += start - now;
    bankFree_[bank] = start + cfg_.cyclesPerLine;
    ++accesses_;
    return start + cfg_.accessLatency;
}

} // namespace photon::timing
