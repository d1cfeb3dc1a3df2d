/**
 * @file
 * A timestamp-based set-associative cache model. Rather than queueing
 * discrete events, the model keeps tag/LRU state plus a port next-free
 * counter, which yields contention-dependent latencies at a fraction of
 * the cost of a full event-driven cache.
 *
 * Data layout (DESIGN.md §13): tag state is one flat array of line ids,
 * set-major, and each set is kept in recency order — most recently used
 * first, kEmptyWay marking an unfilled way. A hit rotates its line to
 * the front; a miss shifts the set down one and inserts at the front,
 * dropping the last way, which is an empty way if the set has one and
 * the least recently used line otherwise. That is true LRU with
 * invalid-first victim choice, with no use clock or per-way timestamp
 * to store. photon_lint flags any per-way aggregate vector introduced
 * here (aos-in-hot-path).
 */
// photon-lint: soa-hot-path

#ifndef PHOTON_TIMING_CACHE_HPP
#define PHOTON_TIMING_CACHE_HPP

#include <cstdint>
#include <vector>

#include "sim/config.hpp"
#include "sim/types.hpp"

namespace photon::timing {

/**
 * Set-associative cache with LRU replacement, addressed by line number
 * (byte address / line size). Fill-on-miss happens at probe time.
 */
class SetAssocCache
{
  public:
    /** Marks an unfilled way. Line ids are byte addresses divided by
     *  the line size, so no real line can take this value. */
    static constexpr std::uint64_t kEmptyWay = ~std::uint64_t{0};

    explicit SetAssocCache(const CacheConfig &cfg);

    /**
     * Look up @p lineAddr, updating LRU state; on a miss the line is
     * allocated (evicting the LRU way).
     *
     * @return true on hit.
     */
    bool
    probe(std::uint64_t lineAddr)
    {
        // The full line id is stored as the tag, so there is no
        // aliasing. One pass shifts each way down by one until the line
        // turns up: a hit at way w rotates ways [0, w] (the line lands
        // in front), a miss shifts the whole set and drops the last way.
        std::uint64_t *set = &lines_[(lineAddr & setMask_) * ways_];
        std::uint64_t carry = lineAddr;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            const std::uint64_t cur = set[w];
            set[w] = carry;
            if (cur == lineAddr) {
                ++hits_;
                return true;
            }
            carry = cur;
        }
        ++misses_;
        return false;
    }

    /** Look up without allocating or touching LRU (for tests/tools). */
    bool contains(std::uint64_t lineAddr) const;

    /** Invalidate all lines (between kernels this is NOT called — caches
     *  stay warm across launches, as on real hardware). */
    void flush();

    /** Reserve the (single) port starting no earlier than @p now;
     *  returns the cycle at which this access actually occupies the
     *  port. Each access holds the port for one cycle. */
    Cycle
    reservePort(Cycle now)
    {
        Cycle t = now > portFree_ ? now : portFree_;
        portFree_ = t + 1;
        return t;
    }

    Cycle hitLatency() const { return cfg_.hitLatency; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint32_t numSets() const { return setMask_ + 1; }
    std::uint32_t ways() const { return ways_; }

  private:
    CacheConfig cfg_;
    std::uint32_t setMask_;
    std::uint32_t ways_;
    /** numSets x ways line ids, set-major, each set MRU first. */
    std::vector<std::uint64_t> lines_;
    Cycle portFree_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace photon::timing

#endif // PHOTON_TIMING_CACHE_HPP
