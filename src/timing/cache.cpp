#include "timing/cache.hpp"

#include <algorithm>

#include "sim/log.hpp"

namespace photon::timing {

SetAssocCache::SetAssocCache(const CacheConfig &cfg)
    : cfg_(cfg), setMask_(cfg.numSets() - 1), ways_(cfg.ways)
{
    const std::uint32_t sets = cfg.numSets();
    PHOTON_ASSERT(sets > 0 && (sets & (sets - 1)) == 0,
                  "cache set count must be a power of two");
    lines_.assign(std::size_t{sets} * ways_, kEmptyWay);
}

bool
SetAssocCache::contains(std::uint64_t lineAddr) const
{
    const std::uint64_t *set = &lines_[(lineAddr & setMask_) * ways_];
    return std::find(set, set + ways_, lineAddr) != set + ways_;
}

void
SetAssocCache::flush()
{
    std::fill(lines_.begin(), lines_.end(), kEmptyWay);
}

} // namespace photon::timing
