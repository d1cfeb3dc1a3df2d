#include "timing/memsys.hpp"

#include <algorithm>
#include <bit>

#include "sim/log.hpp"

namespace photon::timing {

MemorySystem::MemorySystem(const GpuConfig &cfg)
    : cfg_(cfg), l2BankMask_(cfg.l2Banks - 1),
      mshrMask_(cfg.mshrsPerCu - 1), dram_(cfg.dram)
{
    PHOTON_ASSERT(std::has_single_bit(cfg.l2Banks),
                  "L2 bank count must be a power of two");
    PHOTON_ASSERT(std::has_single_bit(cfg.mshrsPerCu),
                  "MSHRs per CU must be a power of two");
    std::uint32_t groups = (cfg.numCus + kCusPerL1Group - 1) /
                           kCusPerL1Group;
    l1v_.reserve(cfg.numCus);
    for (std::uint32_t i = 0; i < cfg.numCus; ++i)
        l1v_.emplace_back(cfg.l1v);
    l1i_.reserve(groups);
    l1k_.reserve(groups);
    for (std::uint32_t i = 0; i < groups; ++i) {
        l1i_.emplace_back(cfg.l1i);
        l1k_.emplace_back(cfg.l1k);
    }
    l2_.reserve(cfg.l2Banks);
    for (std::uint32_t i = 0; i < cfg.l2Banks; ++i)
        l2_.emplace_back(cfg.l2);
    mshrFree_.assign(std::size_t{cfg.numCus} * cfg.mshrsPerCu, 0);
    mshrPtr_.assign(cfg.numCus, 0);
}

Cycle
MemorySystem::l2Access(std::uint64_t lineAddr, Cycle now)
{
    SetAssocCache &bank = l2_[lineAddr & l2BankMask_];
    Cycle start = bank.reservePort(now);
    if (bank.probe(lineAddr))
        return start + bank.hitLatency();
    return dram_.access(lineAddr, start + bank.hitLatency());
}

Cycle
MemorySystem::vectorAccess(std::uint32_t cuId, std::uint64_t lineAddr,
                           bool write, Cycle now)
{
    // Stores are modelled write-allocate/write-back: the line is brought
    // into the cache on the same path as a load; dirty write-back
    // bandwidth is second-order and not modelled.
    (void)write;
    VmemProbe p = vectorProbe(cuId, lineAddr, now);
    if (p.hit)
        return p.ready;
    return vectorCommitMiss(cuId, {lineAddr, p.missBase, p.mshrIdx});
}

Cycle
MemorySystem::vectorCommitMiss(std::uint32_t cuId, const VmemMiss &miss)
{
    Cycle &mshr =
        mshrFree_[std::size_t{cuId} * cfg_.mshrsPerCu + miss.mshrIdx];
    Cycle miss_start = std::max(miss.missBase, mshr);
    Cycle fill = l2Access(miss.line, miss_start);
    mshr = fill;
    return fill;
}

Cycle
MemorySystem::scalarAccess(std::uint32_t cuId, std::uint64_t lineAddr,
                           Cycle now)
{
    SetAssocCache &l1 = l1k_[cuId / kCusPerL1Group];
    Cycle start = l1.reservePort(now);
    if (l1.probe(lineAddr))
        return start + l1.hitLatency();
    return l2Access(lineAddr, start + l1.hitLatency());
}

Cycle
MemorySystem::instAccess(std::uint32_t cuId, std::uint64_t lineAddr,
                         Cycle now)
{
    SetAssocCache &l1 = l1i_[cuId / kCusPerL1Group];
    Cycle start = l1.reservePort(now);
    if (l1.probe(lineAddr))
        return start + l1.hitLatency();
    return l2Access(lineAddr, start + l1.hitLatency());
}

void
MemorySystem::exportStats(StatRegistry &stats) const
{
    std::uint64_t l1v_hits = 0, l1v_misses = 0;
    for (const auto &c : l1v_) {
        l1v_hits += c.hits();
        l1v_misses += c.misses();
    }
    std::uint64_t l1i_hits = 0, l1i_misses = 0;
    for (const auto &c : l1i_) {
        l1i_hits += c.hits();
        l1i_misses += c.misses();
    }
    std::uint64_t l1k_hits = 0, l1k_misses = 0;
    for (const auto &c : l1k_) {
        l1k_hits += c.hits();
        l1k_misses += c.misses();
    }
    std::uint64_t l2_hits = 0, l2_misses = 0;
    for (const auto &c : l2_) {
        l2_hits += c.hits();
        l2_misses += c.misses();
    }
    stats.add("mem.l1v.hits", static_cast<double>(l1v_hits));
    stats.add("mem.l1v.misses", static_cast<double>(l1v_misses));
    stats.add("mem.l1i.hits", static_cast<double>(l1i_hits));
    stats.add("mem.l1i.misses", static_cast<double>(l1i_misses));
    stats.add("mem.l1k.hits", static_cast<double>(l1k_hits));
    stats.add("mem.l1k.misses", static_cast<double>(l1k_misses));
    stats.add("mem.l2.hits", static_cast<double>(l2_hits));
    stats.add("mem.l2.misses", static_cast<double>(l2_misses));
    stats.add("mem.dram.accesses", static_cast<double>(dram_.accesses()));
    stats.add("mem.dram.queueing_cycles",
              static_cast<double>(dram_.queueingCycles()));
}

} // namespace photon::timing
