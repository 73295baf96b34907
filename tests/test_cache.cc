/**
 * @file
 * Unit tests for the simulator's memory hierarchy (src/sim/sim_cache.hh,
 * src/sim/sim_hierarchy.hh): LRU set-associative behaviour, hierarchy
 * latencies, and MESI-style write invalidation.
 */

#include <gtest/gtest.h>

#include "sim/sim_cache.hh"
#include "sim/sim_hierarchy.hh"

namespace rppm {
namespace {

CacheConfig
tinyCache(uint32_t size_bytes, uint32_t assoc)
{
    return CacheConfig{"tiny", size_bytes, assoc, 64, 1};
}

/** Whether @p c holds @p addr, probed on a copy so that neither the LRU
 *  order nor the statistics of @p c change. */
bool
holds(const SimCache &c, uint64_t addr)
{
    SimCache probe = c;
    return probe.access(addr, false);
}

TEST(Cache, FirstAccessMisses)
{
    SimCache c(tinyCache(1024, 2));
    EXPECT_FALSE(c.access(0x1000, false));
    EXPECT_EQ(c.stats().misses, 1u);
    EXPECT_EQ(c.stats().accesses, 1u);
}

TEST(Cache, SecondAccessHits)
{
    SimCache c(tinyCache(1024, 2));
    c.access(0x1000, false);
    EXPECT_TRUE(c.access(0x1000, false));
    EXPECT_TRUE(c.access(0x1020, false)); // same 64B line
}

TEST(Cache, LruEvictionOrder)
{
    // 2-way, 64B lines, 256B total => 2 sets. Lines mapping to set 0:
    // line numbers 0, 2, 4 (addresses 0x0, 0x80, 0x100).
    SimCache c(tinyCache(256, 2));
    c.access(0x000, false);
    c.access(0x080, false);
    // Touch 0x000 so 0x080 becomes LRU.
    c.access(0x000, false);
    // Fill a third line in set 0: must evict 0x080.
    c.access(0x100, false);
    EXPECT_TRUE(holds(c, 0x000));
    EXPECT_FALSE(holds(c, 0x080));
    EXPECT_TRUE(holds(c, 0x100));
}

TEST(Cache, AssociativityConflicts)
{
    // Direct-mapped: two lines mapping to the same set evict each other.
    SimCache c(tinyCache(128, 1)); // 2 sets
    c.access(0x000, false);
    c.access(0x080, false); // same set as 0x000
    EXPECT_FALSE(holds(c, 0x000));
    EXPECT_TRUE(holds(c, 0x080));
}

TEST(Cache, FullyAssociativeHoldsWorkingSet)
{
    SimCache c(tinyCache(1024, 16)); // fully associative, 16 lines
    for (uint64_t i = 0; i < 16; ++i)
        c.access(i * 64, false);
    for (uint64_t i = 0; i < 16; ++i)
        EXPECT_TRUE(holds(c, i * 64)) << i;
    // One more line evicts exactly the LRU (line 0).
    c.access(16 * 64, false);
    EXPECT_FALSE(holds(c, 0));
    EXPECT_TRUE(holds(c, 64));
}

TEST(Cache, NonPowerOfTwoGeometry)
{
    // 3 sets x 2 ways: set index and tag take the division fallback.
    SimCache c(tinyCache(384, 2));
    c.access(0 * 64, false);
    c.access(3 * 64, false); // line 3: set 0 again
    c.access(6 * 64, false); // line 6: set 0, evicts line 0
    EXPECT_FALSE(holds(c, 0));
    EXPECT_TRUE(holds(c, 3 * 64));
    EXPECT_TRUE(holds(c, 6 * 64));
    EXPECT_FALSE(holds(c, 1 * 64)); // set 1 untouched
}

TEST(Cache, InvalidateRemovesLine)
{
    SimCache c(tinyCache(1024, 2));
    c.access(0x1000, false);
    EXPECT_TRUE(c.invalidateLine(c.lineOf(0x1000)));
    EXPECT_FALSE(holds(c, 0x1000));
    EXPECT_FALSE(c.invalidateLine(c.lineOf(0x1000))); // already gone
    EXPECT_EQ(c.stats().invalidations, 1u);
}

TEST(Cache, InvalidatingEveryLineEmptiesCache)
{
    // The simulator never flushes a cache wholesale; invalidating every
    // resident line is how a cache empties, and the freed ways are
    // refilled before any live way is evicted.
    SimCache c(tinyCache(1024, 2));
    for (uint64_t i = 0; i < 8; ++i)
        c.access(i * 64, false);
    for (uint64_t i = 0; i < 8; ++i)
        EXPECT_TRUE(c.invalidateLine(c.lineOf(i * 64))) << i;
    for (uint64_t i = 0; i < 8; ++i)
        EXPECT_FALSE(holds(c, i * 64)) << i;
    EXPECT_EQ(c.stats().invalidations, 8u);
}

TEST(Cache, InvalidWayIsRefilledBeforeLru)
{
    // 2-way, 2 sets: after invalidating the MRU line of a full set, the
    // next fill takes the invalid way and keeps the LRU line.
    SimCache c(tinyCache(256, 2));
    c.access(0x000, false);
    c.access(0x080, false); // 0x000 is now LRU
    c.invalidateLine(c.lineOf(0x080));
    c.access(0x100, false);
    EXPECT_TRUE(holds(c, 0x000));
    EXPECT_TRUE(holds(c, 0x100));
}

TEST(Cache, MissRateStat)
{
    SimCache c(tinyCache(1024, 2));
    c.access(0x0, false);
    c.access(0x0, false);
    c.access(0x0, false);
    c.access(0x0, false);
    EXPECT_DOUBLE_EQ(c.stats().missRate(), 0.25);
}

/** Property: for the same trace, a larger fully-associative LRU cache
 *  never misses more (LRU inclusion property). */
class CacheInclusionTest : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(CacheInclusionTest, LargerCacheNeverWorse)
{
    const uint32_t lines_small = GetParam();
    SimCache small(tinyCache(lines_small * 64, lines_small));
    SimCache big(tinyCache(lines_small * 2 * 64, lines_small * 2));
    uint64_t seed = 12345;
    for (int i = 0; i < 20000; ++i) {
        seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
        const uint64_t addr = (seed >> 33) % (lines_small * 8) * 64;
        small.access(addr, false);
        big.access(addr, false);
    }
    EXPECT_LE(big.stats().misses, small.stats().misses);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CacheInclusionTest,
                         ::testing::Values(4, 8, 16, 32, 64));

// -------------------------------------------------------- SimHierarchy ---

MulticoreConfig
smallHierarchyConfig()
{
    MulticoreConfig cfg = baseConfig();
    cfg.setNumCores(2);
    cfg.eachCore([](CoreConfig &c) {
        c.l1d = {"L1D", 1024, 2, 64, 3};
        c.l1i = {"L1I", 1024, 2, 64, 1};
        c.l2 = {"L2", 4096, 4, 64, 10};
        c.memLatency = 200;
    });
    cfg.llc = {"LLC", 16384, 8, 64, 30};
    return cfg;
}

TEST(Hierarchy, LatencyPerLevel)
{
    SimHierarchy h(smallHierarchyConfig());
    // Cold: memory access.
    auto r = h.dataAccess(0, 0x10000, false);
    EXPECT_EQ(r.level, HitLevel::Memory);
    EXPECT_EQ(r.latency, 3u + 10u + 30u + 200u);
    // Now everything is filled: L1 hit.
    r = h.dataAccess(0, 0x10000, false);
    EXPECT_EQ(r.level, HitLevel::L1);
    EXPECT_EQ(r.latency, 3u);
}

TEST(Hierarchy, L2ServesL1Victims)
{
    SimHierarchy h(smallHierarchyConfig());
    // L1D: 16 lines. Touch 17 distinct lines: line 0 falls to L2.
    for (uint64_t i = 0; i <= 16; ++i)
        h.dataAccess(0, i * 64, false);
    const auto r = h.dataAccess(0, 0, false);
    EXPECT_EQ(r.level, HitLevel::L2);
    EXPECT_EQ(r.latency, 3u + 10u);
}

TEST(Hierarchy, SharedLlcServesRemoteData)
{
    SimHierarchy h(smallHierarchyConfig());
    h.dataAccess(0, 0x40000, false); // core 0 brings line into LLC
    const auto r = h.dataAccess(1, 0x40000, false);
    // Core 1 misses privately but hits the shared LLC: positive
    // interference across threads.
    EXPECT_EQ(r.level, HitLevel::LLC);
}

TEST(Hierarchy, WriteInvalidatesRemoteCopies)
{
    SimHierarchy h(smallHierarchyConfig());
    h.dataAccess(0, 0x40000, false);
    h.dataAccess(1, 0x40000, false); // both cores now cache the line
    h.dataAccess(1, 0x40000, false); // L1 hit for core 1
    EXPECT_EQ(h.coreStats(1).l1dMisses, 1u);

    // Core 0 writes: core 1's copies must be invalidated.
    h.dataAccess(0, 0x40000, true);
    const auto r = h.dataAccess(1, 0x40000, false);
    EXPECT_NE(r.level, HitLevel::L1);
    EXPECT_TRUE(r.coherenceMiss);
    EXPECT_EQ(h.coreStats(1).invalidationsReceived, 1u);
    EXPECT_EQ(h.coreStats(1).coherenceMisses, 1u);
}

TEST(Hierarchy, NoSelfInvalidation)
{
    SimHierarchy h(smallHierarchyConfig());
    h.dataAccess(0, 0x40000, true);
    const auto r = h.dataAccess(0, 0x40000, false);
    EXPECT_EQ(r.level, HitLevel::L1);
    EXPECT_FALSE(r.coherenceMiss);
    EXPECT_EQ(h.coreStats(0).invalidationsReceived, 0u);
}

TEST(Hierarchy, InstrFetchHitIsFree)
{
    SimHierarchy h(smallHierarchyConfig());
    EXPECT_GT(h.instrFetch(0, 0x400), 0u); // cold
    EXPECT_EQ(h.instrFetch(0, 0x400), 0u); // warm
    EXPECT_EQ(h.coreStats(0).l1iMisses, 1u);
    EXPECT_EQ(h.coreStats(0).l1iAccesses, 2u);
}

TEST(Hierarchy, StatsTrackPerCore)
{
    SimHierarchy h(smallHierarchyConfig());
    h.dataAccess(0, 0x100, false);
    h.dataAccess(0, 0x100, false);
    h.dataAccess(1, 0x200, true);
    EXPECT_EQ(h.coreStats(0).l1dAccesses, 2u);
    EXPECT_EQ(h.coreStats(0).l1dMisses, 1u);
    EXPECT_EQ(h.coreStats(1).l1dAccesses, 1u);
}

} // namespace
} // namespace rppm
