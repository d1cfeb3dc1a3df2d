/** @file Tests for the set-associative cache model. */

#include <gtest/gtest.h>

#include <vector>

#include "sim/rng.hpp"
#include "timing/cache.hpp"

using namespace photon;
using timing::SetAssocCache;

namespace {

CacheConfig
smallCache()
{
    // 4 sets x 2 ways x 64B lines.
    return CacheConfig{512, 2, 64, 10};
}

} // namespace

TEST(Cache, MissThenHit)
{
    SetAssocCache c(smallCache());
    EXPECT_FALSE(c.probe(100));
    EXPECT_TRUE(c.probe(100));
    EXPECT_EQ(c.misses(), 1u);
    EXPECT_EQ(c.hits(), 1u);
}

TEST(Cache, DistinctLinesDistinctEntries)
{
    SetAssocCache c(smallCache());
    c.probe(1);
    c.probe(2);
    EXPECT_TRUE(c.contains(1));
    EXPECT_TRUE(c.contains(2));
}

TEST(Cache, LruEvictionWithinSet)
{
    SetAssocCache c(smallCache()); // 4 sets: lines 0,4,8 share set 0
    c.probe(0);
    c.probe(4);
    c.probe(0);  // 0 is now MRU, 4 is LRU
    c.probe(8);  // evicts 4
    EXPECT_TRUE(c.contains(0));
    EXPECT_FALSE(c.contains(4));
    EXPECT_TRUE(c.contains(8));
}

TEST(Cache, EvictionPrefersInvalidWays)
{
    SetAssocCache c(smallCache());
    c.probe(0);
    c.probe(4); // second way, no eviction of line 0
    EXPECT_TRUE(c.contains(0));
    EXPECT_TRUE(c.contains(4));
}

TEST(Cache, FlushInvalidatesEverything)
{
    SetAssocCache c(smallCache());
    c.probe(0);
    c.probe(1);
    c.flush();
    EXPECT_FALSE(c.contains(0));
    EXPECT_FALSE(c.contains(1));
}

TEST(Cache, ContainsDoesNotAllocate)
{
    SetAssocCache c(smallCache());
    EXPECT_FALSE(c.contains(5));
    EXPECT_FALSE(c.contains(5)); // still a miss if probed
    EXPECT_FALSE(c.probe(5));
}

TEST(Cache, PortSerialisesAccesses)
{
    SetAssocCache c(smallCache());
    EXPECT_EQ(c.reservePort(100), 100u);
    EXPECT_EQ(c.reservePort(100), 101u); // one access per cycle
    EXPECT_EQ(c.reservePort(100), 102u);
    EXPECT_EQ(c.reservePort(200), 200u); // idle gap resets
}

TEST(Cache, NoAliasingAcrossLinesSharingASet)
{
    SetAssocCache c(smallCache());
    c.probe(1);
    c.probe(1 + 4 * 1000);
    EXPECT_TRUE(c.contains(1));
    EXPECT_TRUE(c.contains(1 + 4 * 1000));
    EXPECT_FALSE(c.contains(1 + 4 * 2000));
}

/** Parameterised sweep: a cyclic working set that fits never misses
 *  after the first pass; at 2x capacity LRU thrashes to zero hits. */
class CacheSweep : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(CacheSweep, CyclicWorkingSetBehaviour)
{
    CacheConfig cfg{GetParam(), 4, 64, 10};
    SetAssocCache c(cfg);
    std::uint32_t lines_capacity = cfg.sizeBytes / cfg.lineBytes;

    for (std::uint32_t pass = 0; pass < 3; ++pass) {
        for (std::uint32_t i = 0; i < lines_capacity; ++i)
            c.probe(i);
    }
    EXPECT_EQ(c.misses(), lines_capacity);

    SetAssocCache d(cfg);
    for (std::uint32_t pass = 0; pass < 2; ++pass) {
        for (std::uint32_t i = 0; i < 2 * lines_capacity; ++i)
            d.probe(i);
    }
    EXPECT_EQ(d.hits(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CacheSweep,
                         ::testing::Values(1024u, 4096u, 16384u, 65536u));

namespace {

/**
 * The per-way LRU model the recency-ordered cache replaced, kept as an
 * oracle: each way holds {tag, lastUse, valid}, a global use clock
 * stamps every probe, and a miss fills the first invalid way or else
 * the valid way with the least lastUse.
 */
class WayLruOracle
{
  public:
    explicit WayLruOracle(const CacheConfig &cfg)
        : numSets_(cfg.numSets()), ways_(cfg.ways),
          way_(std::size_t{numSets_} * ways_)
    {}

    bool
    probe(std::uint64_t line)
    {
        Way *base = &way_[(line & (numSets_ - 1)) * ways_];
        ++useClock_;
        Way *victim = nullptr;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            Way &way = base[w];
            if (way.valid && way.tag == line) {
                way.lastUse = useClock_;
                return true;
            }
            bool better = !victim ||
                          (victim->valid &&
                           (!way.valid || way.lastUse < victim->lastUse));
            if (better)
                victim = &way;
        }
        victim->valid = true;
        victim->tag = line;
        victim->lastUse = useClock_;
        return false;
    }

    bool
    contains(std::uint64_t line) const
    {
        const Way *base = &way_[(line & (numSets_ - 1)) * ways_];
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (base[w].valid && base[w].tag == line)
                return true;
        }
        return false;
    }

    void
    flush()
    {
        for (Way &w : way_)
            w.valid = false;
    }

  private:
    struct Way
    {
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    std::uint32_t numSets_;
    std::uint32_t ways_;
    std::vector<Way> way_;
    std::uint64_t useClock_ = 0;
};

struct Geometry
{
    const char *name;
    CacheConfig cfg;
};

/** Every cache shape the GPU presets build (sim/config.cpp). */
const std::vector<Geometry> &
presetGeometries()
{
    static const std::vector<Geometry> kGeometries = {
        {"l1v/l1k 16KB 4-way", {16 * 1024, 4, 64, 16}},
        {"l1i 32KB 4-way", {32 * 1024, 4, 64, 8}},
        {"l2 256KB 16-way", {256 * 1024, 16, 64, 110}},
        {"tiny l1v/l1k 4KB 2-way", {4 * 1024, 2, 64, 16}},
        {"tiny l1i 8KB 2-way", {8 * 1024, 2, 64, 8}},
        {"tiny l2 32KB 4-way", {32 * 1024, 4, 64, 110}},
    };
    return kGeometries;
}

/**
 * Drive the cache and the oracle with one seeded stream: a mix of
 * fresh lines from a footprint of 4x capacity, short-distance reuse of
 * recent lines (hits at every recency depth) and strided sweeps over a
 * few sets (eviction chains), with a flush halfway. Every probe must
 * agree, and so must contains() on a just-probed line, a recent line
 * and a random one.
 */
void
runDifferential(const Geometry &g, std::uint64_t seed)
{
    SetAssocCache cache(g.cfg);
    WayLruOracle oracle(g.cfg);
    Rng rng(seed);
    const std::uint64_t capacity = g.cfg.sizeBytes / g.cfg.lineBytes;
    const std::uint64_t footprint = 4 * capacity;
    const std::uint64_t sets = g.cfg.numSets();
    const std::uint32_t probes = 40000;
    std::vector<std::uint64_t> recent(64, 0);
    std::uint64_t hits = 0;

    for (std::uint32_t i = 0; i < probes; ++i) {
        if (i == probes / 2) {
            cache.flush();
            oracle.flush();
        }
        std::uint64_t line;
        switch (rng.nextBelow(3)) {
          case 0:
            line = rng.nextBelow(footprint);
            break;
          case 1:
            line = recent[rng.nextBelow(recent.size())];
            break;
          default:
            // One of 2 x ways lines sharing one of three sets: hits at
            // every recency depth and a long eviction chain.
            line = rng.nextBelow(2 * g.cfg.ways) * sets + i % 3;
            break;
        }
        recent[i % recent.size()] = line;

        bool want = oracle.probe(line);
        ASSERT_EQ(cache.probe(line), want)
            << g.name << " seed " << seed << " probe " << i << " line "
            << line;
        hits += want;

        std::uint64_t checks[] = {line, recent[rng.nextBelow(recent.size())],
                                  rng.nextBelow(footprint)};
        for (std::uint64_t c : checks)
            ASSERT_EQ(cache.contains(c), oracle.contains(c))
                << g.name << " seed " << seed << " after probe " << i
                << " line " << c;
    }
    EXPECT_EQ(cache.hits(), hits) << g.name;
    EXPECT_EQ(cache.misses(), probes - hits) << g.name;
    // The stream must exercise both outcomes to mean anything.
    EXPECT_GT(hits, probes / 10) << g.name;
    EXPECT_GT(probes - hits, probes / 10) << g.name;
}

} // namespace

TEST(Cache, RecencyOrderMatchesPerWayLruOracle)
{
    for (const Geometry &g : presetGeometries()) {
        for (std::uint64_t seed : {1u, 7u, 1234u})
            runDifferential(g, seed);
    }
}
