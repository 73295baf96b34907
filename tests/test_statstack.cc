/**
 * @file
 * Unit tests for src/statstack: reuse -> stack distance conversion and
 * LRU miss-rate prediction, validated against brute-force stack-distance
 * oracles on synthetic access streams.
 */

#include <gtest/gtest.h>

#include <bit>
#include <list>
#include <string>
#include <utility>
#include <unordered_map>
#include <vector>

#include "common/histogram.hh"
#include "common/rng.hh"
#include "statstack/statstack.hh"

namespace rppm {
namespace {

/** Brute-force fully-associative LRU simulation: exact miss count. */
uint64_t
lruMisses(const std::vector<uint64_t> &stream, size_t lines)
{
    std::list<uint64_t> stack;
    std::unordered_map<uint64_t, std::list<uint64_t>::iterator> where;
    uint64_t misses = 0;
    for (uint64_t line : stream) {
        auto it = where.find(line);
        if (it != where.end()) {
            stack.erase(it->second);
        } else {
            ++misses;
            if (stack.size() >= lines) {
                where.erase(stack.back());
                stack.pop_back();
            }
        }
        stack.push_front(line);
        where[line] = stack.begin();
    }
    return misses;
}

/** Build the reuse-distance histogram of a stream (infinite for colds). */
LogHistogram
reuseHistogram(const std::vector<uint64_t> &stream)
{
    LogHistogram hist;
    std::unordered_map<uint64_t, uint64_t> last;
    for (uint64_t i = 0; i < stream.size(); ++i) {
        auto [it, inserted] = last.try_emplace(stream[i], 0);
        if (inserted)
            hist.add(LogHistogram::kInfinity);
        else
            hist.add(i - it->second - 1);
        it->second = i;
    }
    return hist;
}

TEST(StatStack, SequentialStreamAllCold)
{
    std::vector<uint64_t> stream;
    for (uint64_t i = 0; i < 1000; ++i)
        stream.push_back(i);
    const LogHistogram hist = reuseHistogram(stream);
    StatStack ss(hist);
    // Every access is cold: miss rate 1 regardless of cache size.
    EXPECT_DOUBLE_EQ(ss.missRate(16), 1.0);
    EXPECT_DOUBLE_EQ(ss.missRate(1 << 20), 1.0);
}

TEST(StatStack, TightLoopFitsInCache)
{
    // Cyclic access to 8 lines: after the cold start, everything hits in
    // any cache with >= 8 lines.
    std::vector<uint64_t> stream;
    for (int rep = 0; rep < 1000; ++rep)
        for (uint64_t l = 0; l < 8; ++l)
            stream.push_back(l);
    StatStack ss_hist(reuseHistogram(stream));
    EXPECT_NEAR(ss_hist.missRate(16), 8.0 / 8000.0, 1e-6);
    // And misses everywhere in a cache with fewer lines (cyclic LRU worst
    // case).
    EXPECT_NEAR(ss_hist.missRate(4), 1.0, 0.01);
}

TEST(StatStack, StackDistanceOfUniformStream)
{
    // Cyclic stream over K lines: every non-cold access has reuse
    // distance K-1 and true stack distance K-1.
    constexpr uint64_t kLines = 32;
    std::vector<uint64_t> stream;
    for (int rep = 0; rep < 500; ++rep)
        for (uint64_t l = 0; l < kLines; ++l)
            stream.push_back(l);
    StatStack ss(reuseHistogram(stream));
    EXPECT_NEAR(ss.stackDistance(kLines - 1),
                static_cast<double>(kLines - 1),
                static_cast<double>(kLines) * 0.15);
}

TEST(StatStack, EmptyHistogram)
{
    LogHistogram hist;
    StatStack ss(hist);
    EXPECT_TRUE(ss.empty());
    EXPECT_DOUBLE_EQ(ss.missRate(64), 0.0);
}

TEST(StatStack, ColdOnlyHistogram)
{
    LogHistogram hist;
    hist.add(LogHistogram::kInfinity, 100);
    StatStack ss(hist);
    EXPECT_DOUBLE_EQ(ss.missRate(1024), 1.0);
}

TEST(StatStack, MissRateMonotoneInCacheSize)
{
    Rng rng(17);
    std::vector<uint64_t> stream;
    for (int i = 0; i < 50000; ++i)
        stream.push_back(rng.nextBounded(4096));
    StatStack ss(reuseHistogram(stream));
    double prev = 1.1;
    for (uint64_t lines = 16; lines <= 16384; lines *= 2) {
        const double miss = ss.missRate(lines);
        EXPECT_LE(miss, prev + 1e-9) << lines;
        prev = miss;
    }
}

TEST(StatStack, CriticalReuseDistanceMonotone)
{
    Rng rng(19);
    std::vector<uint64_t> stream;
    for (int i = 0; i < 30000; ++i)
        stream.push_back(rng.nextBounded(2048));
    StatStack ss(reuseHistogram(stream));
    uint64_t prev = 0;
    for (uint64_t lines = 8; lines <= 4096; lines *= 2) {
        const uint64_t crd = ss.criticalReuseDistance(lines);
        EXPECT_GE(crd, prev);
        prev = crd == LogHistogram::kInfinity ? prev : crd;
    }
}

/**
 * Core accuracy property: StatStack's predicted miss rate matches a
 * brute-force fully-associative LRU simulation on random streams with a
 * range of working-set sizes and cache sizes.
 */
class StatStackAccuracyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint64_t>>
{
};

TEST_P(StatStackAccuracyTest, MatchesLruOracle)
{
    const auto [footprint, cache_lines] = GetParam();
    Rng rng(footprint * 131 + cache_lines);
    std::vector<uint64_t> stream;
    const int n = 60000;
    for (int i = 0; i < n; ++i) {
        // Mix of uniform random over the footprint plus a hot subset, so
        // the reuse distribution is not trivially flat.
        if (rng.nextBool(0.3))
            stream.push_back(rng.nextBounded(std::max<uint64_t>(
                footprint / 16, 1)));
        else
            stream.push_back(rng.nextBounded(footprint));
    }
    const double oracle =
        static_cast<double>(lruMisses(stream, cache_lines)) / n;
    StatStack ss(reuseHistogram(stream));
    const double predicted = ss.missRate(cache_lines);
    EXPECT_NEAR(predicted, oracle, 0.05)
        << "footprint " << footprint << " cache " << cache_lines;
}

INSTANTIATE_TEST_SUITE_P(
    FootprintCacheSweep, StatStackAccuracyTest,
    ::testing::Combine(::testing::Values(256u, 1024u, 4096u, 16384u),
                       ::testing::Values(64u, 256u, 1024u, 4096u)));

TEST(StatStack, CapturesSharingInGlobalDistribution)
{
    // Two interleaved "threads" touching the same lines: the global
    // reuse distance is short even though each thread alone would have a
    // long one — positive interference (paper Fig. 2, address D).
    std::vector<uint64_t> shared_stream;
    for (int rep = 0; rep < 2000; ++rep) {
        // Thread A then thread B touch the same 4 lines alternately.
        for (uint64_t l = 0; l < 4; ++l) {
            shared_stream.push_back(l); // A
            shared_stream.push_back(l); // B
        }
    }
    StatStack ss(reuseHistogram(shared_stream));
    // Half the accesses have reuse distance 0: a tiny cache already
    // captures them.
    EXPECT_LT(ss.missRate(8), 0.02);
}

TEST(StatStack, InvalidationAsInfiniteDistanceRaisesMissRate)
{
    // A thread cycling over 4 lines, but with every second reuse broken
    // by a remote write (recorded as infinite): miss rate ~1/2 even in a
    // large cache.
    LogHistogram hist;
    hist.add(3, 500);
    hist.add(LogHistogram::kInfinity, 500);
    StatStack ss(hist);
    EXPECT_NEAR(ss.missRate(1024), 0.5, 0.01);
}

// ------------------------------------- table-driven construction ---

/** Seeded random histograms: empty, infinite-only, single-bucket,
 *  sparse, dense and far-tail shapes. */
std::vector<LogHistogram>
randomHistograms(uint64_t seed)
{
    Rng rng(seed);
    std::vector<LogHistogram> out;
    out.emplace_back(); // empty
    LogHistogram inf_only;
    inf_only.add(LogHistogram::kInfinity, 1 + rng.nextBounded(1000));
    out.push_back(inf_only);
    for (uint64_t value : {uint64_t{0}, uint64_t{7}, uint64_t{1000},
                           uint64_t{1} << 42}) {
        LogHistogram single;
        single.add(value, 1 + rng.nextBounded(1000));
        out.push_back(single);
        single.add(LogHistogram::kInfinity, 1 + rng.nextBounded(50));
        out.push_back(single);
    }
    for (int h = 0; h < 24; ++h) {
        LogHistogram hist;
        const uint64_t samples = 1 + rng.nextBounded(h < 12 ? 6 : 400);
        for (uint64_t i = 0; i < samples; ++i) {
            // Log-uniform values up to far past the last bucket's start.
            const uint64_t value = rng.nextBounded(
                (uint64_t{1} << rng.nextBounded(48)) + 1);
            hist.add(value, 1 + rng.nextBounded(1u << rng.nextBounded(20)));
        }
        if (rng.nextBool(0.5))
            hist.add(LogHistogram::kInfinity, 1 + rng.nextBounded(100));
        out.push_back(hist);
    }
    return out;
}

/** O(buckets^2) reference: the survival prefix sums evaluated straight
 *  from LogHistogram::survival at each bucket midpoint. */
std::vector<double>
referencePrefix(const LogHistogram &hist)
{
    std::vector<double> prefix;
    double sum = 0.0;
    for (size_t i = 0; i < LogHistogram::numBuckets(); ++i) {
        sum += hist.survival(LogHistogram::bucketMid(i)) *
            static_cast<double>(LogHistogram::bucketHi(i) -
                                LogHistogram::bucketLo(i) + 1);
        prefix.push_back(sum);
    }
    return prefix;
}

double
referenceStackDistance(const LogHistogram &hist,
                       const std::vector<double> &prefix, uint64_t rd)
{
    if (rd == LogHistogram::kInfinity)
        return static_cast<double>(LogHistogram::kInfinity);
    if (hist.total() == 0)
        return static_cast<double>(rd);
    const size_t idx = LogHistogram::bucketIndex(rd);
    const double below = idx > 0 ? prefix[idx - 1] : 0.0;
    return below + hist.survival(LogHistogram::bucketMid(idx)) *
        static_cast<double>(rd - LogHistogram::bucketLo(idx) + 1);
}

TEST(StatStack, TablesMatchHistogramSurvivalBitForBit)
{
    Rng rng(2010);
    const std::vector<LogHistogram> hists = randomHistograms(2010);
    for (size_t h = 0; h < hists.size(); ++h) {
        const LogHistogram &hist = hists[h];
        const StatStack ss(hist);
        EXPECT_EQ(ss.empty(), hist.totalFinite() == 0) << "hist " << h;

        for (uint64_t lines :
             {uint64_t{0}, uint64_t{1}, uint64_t{2}, uint64_t{7},
              uint64_t{64}, uint64_t{512}, uint64_t{4096}, uint64_t{32768},
              uint64_t{1} << 20, uint64_t{1} << 30, uint64_t{1} << 45,
              1 + rng.nextBounded(1u << 24)}) {
            const uint64_t critical = ss.criticalReuseDistance(lines);
            const double expected = critical == LogHistogram::kInfinity ?
                (hist.total() == 0 ? 0.0 :
                     static_cast<double>(hist.totalInfinite()) /
                         static_cast<double>(hist.total())) :
                hist.survival(critical);
            EXPECT_EQ(std::bit_cast<uint64_t>(ss.missRate(lines)),
                      std::bit_cast<uint64_t>(expected))
                << "hist " << h << " lines " << lines;
        }

        const std::vector<double> prefix = referencePrefix(hist);
        std::vector<uint64_t> rds = {0, 1, 15, 16, 17, 1000,
                                     LogHistogram::kInfinity,
                                     LogHistogram::kInfinity - 1,
                                     uint64_t{1} << 40, uint64_t{1} << 50};
        for (size_t i = 0; i < LogHistogram::numBuckets(); ++i) {
            rds.push_back(LogHistogram::bucketLo(i));
            rds.push_back(LogHistogram::bucketHi(i));
        }
        for (int i = 0; i < 64; ++i)
            rds.push_back(rng.nextBounded(
                (uint64_t{1} << rng.nextBounded(44)) + 1));
        for (uint64_t rd : rds) {
            EXPECT_EQ(std::bit_cast<uint64_t>(ss.stackDistance(rd)),
                      std::bit_cast<uint64_t>(
                          referenceStackDistance(hist, prefix, rd)))
                << "hist " << h << " rd " << rd;
        }
    }
}

// ------------------------------------------------ frozen histograms ---

/** A frozen copy of @p hist. */
LogHistogram
frozenCopy(const LogHistogram &hist)
{
    LogHistogram copy = hist;
    copy.freeze();
    return copy;
}

/** Every (value, count) forEach visits, in order. */
std::vector<std::pair<uint64_t, uint64_t>>
visited(const LogHistogram &hist)
{
    std::vector<std::pair<uint64_t, uint64_t>> out;
    hist.forEach([&out](uint64_t v, uint64_t c) { out.emplace_back(v, c); });
    return out;
}

/** Asserts that @p got answers every query exactly like @p want. */
void
expectSameAnswers(const LogHistogram &got, const LogHistogram &want,
                  const std::string &what)
{
    EXPECT_EQ(visited(got), visited(want)) << what;
    EXPECT_EQ(got.total(), want.total()) << what;
    EXPECT_EQ(got.totalFinite(), want.totalFinite()) << what;
    EXPECT_EQ(got.totalInfinite(), want.totalInfinite()) << what;
    EXPECT_EQ(got.nonEmptyBuckets(), want.nonEmptyBuckets()) << what;
    EXPECT_EQ(std::bit_cast<uint64_t>(got.meanFinite()),
              std::bit_cast<uint64_t>(want.meanFinite()))
        << what;
    for (size_t i = 0; i < LogHistogram::numBuckets(); ++i) {
        for (uint64_t v : {LogHistogram::bucketLo(i),
                           LogHistogram::bucketMid(i),
                           LogHistogram::bucketHi(i)}) {
            EXPECT_EQ(std::bit_cast<uint64_t>(got.survival(v)),
                      std::bit_cast<uint64_t>(want.survival(v)))
                << what << " value " << v;
        }
    }
    EXPECT_EQ(got.survival(LogHistogram::kInfinity),
              want.survival(LogHistogram::kInfinity));
    for (double q : {0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0})
        EXPECT_EQ(got.quantile(q), want.quantile(q)) << what << " q " << q;
}

TEST(FrozenHistogram, AnswersEveryQueryLikeItsDenseOriginal)
{
    const std::vector<LogHistogram> hists = randomHistograms(2010);
    for (size_t h = 0; h < hists.size(); ++h) {
        const LogHistogram &dense = hists[h];
        const LogHistogram frozen = frozenCopy(dense);
        ASSERT_TRUE(frozen.frozen());
        ASSERT_FALSE(dense.frozen());
        // Only the non-empty buckets are stored.
        EXPECT_LE(frozen.heapBytes(),
                  frozen.nonEmptyBuckets() * (sizeof(uint64_t) + 1))
            << "hist " << h;
        expectSameAnswers(frozen, dense, "hist " + std::to_string(h));
    }
}

TEST(FrozenHistogram, MergeAndAddMatchTheDenseForm)
{
    // Every pairing of forms merges to the same distribution, and a
    // frozen histogram keeps its form through merge() and add().
    const std::vector<LogHistogram> hists = randomHistograms(77);
    Rng rng(77);
    for (size_t h = 0; h + 1 < hists.size(); ++h) {
        const LogHistogram &a = hists[h];
        const LogHistogram &b = hists[h + 1];
        LogHistogram want = a;
        want.merge(b);
        for (const bool freeze_a : {false, true}) {
            for (const bool freeze_b : {false, true}) {
                LogHistogram got = freeze_a ? frozenCopy(a) : a;
                got.merge(freeze_b ? frozenCopy(b) : b);
                EXPECT_EQ(got.frozen(), freeze_a);
                expectSameAnswers(got, want,
                                  "merge " + std::to_string(h) + " " +
                                      std::to_string(freeze_a) +
                                      std::to_string(freeze_b));
            }
        }
        // Samples added after freezing, in any bucket order.
        LogHistogram dense = a;
        LogHistogram frozen = frozenCopy(a);
        for (int i = 0; i < 20; ++i) {
            const uint64_t v = rng.nextBool(0.1) ?
                LogHistogram::kInfinity :
                rng.nextBounded((uint64_t{1} << rng.nextBounded(44)) + 1);
            const uint64_t c = 1 + rng.nextBounded(1000);
            dense.add(v, c);
            frozen.add(v, c);
        }
        EXPECT_TRUE(frozen.frozen());
        expectSameAnswers(frozen, dense, "add " + std::to_string(h));
        frozen.freeze(); // trims the inserts' growth; values unchanged
        expectSameAnswers(frozen, dense, "refreeze " + std::to_string(h));
        EXPECT_LE(frozen.heapBytes(),
                  frozen.nonEmptyBuckets() * (sizeof(uint64_t) + 1));
    }
}

TEST(StatStack, FrozenTablesMatchHistogramSurvivalBitForBit)
{
    // TablesMatchHistogramSurvivalBitForBit on stacks built from frozen
    // copies: the same reuse distances (every bucket's bounds, empty
    // buckets, 2^40, 2^50 and kInfinity) and cache sizes, checked
    // against the dense histogram's survival.
    Rng rng(2010);
    const std::vector<LogHistogram> hists = randomHistograms(2010);
    for (size_t h = 0; h < hists.size(); ++h) {
        const LogHistogram &hist = hists[h];
        const StatStack ss(frozenCopy(hist));
        const StatStack dense(hist);
        EXPECT_EQ(ss.empty(), hist.totalFinite() == 0) << "hist " << h;
        // One slot per non-empty bucket, not a table per bucket.
        EXPECT_EQ(ss.heapBytes(), dense.heapBytes()) << "hist " << h;
        EXPECT_LE(ss.heapBytes(), hist.nonEmptyBuckets() * 3 * sizeof(double))
            << "hist " << h;

        for (uint64_t lines :
             {uint64_t{0}, uint64_t{1}, uint64_t{2}, uint64_t{7},
              uint64_t{64}, uint64_t{512}, uint64_t{4096}, uint64_t{32768},
              uint64_t{1} << 20, uint64_t{1} << 30, uint64_t{1} << 45,
              1 + rng.nextBounded(1u << 24)}) {
            const uint64_t critical = ss.criticalReuseDistance(lines);
            EXPECT_EQ(critical, dense.criticalReuseDistance(lines))
                << "hist " << h << " lines " << lines;
            const double expected = critical == LogHistogram::kInfinity ?
                (hist.total() == 0 ? 0.0 :
                     static_cast<double>(hist.totalInfinite()) /
                         static_cast<double>(hist.total())) :
                hist.survival(critical);
            EXPECT_EQ(std::bit_cast<uint64_t>(ss.missRate(lines)),
                      std::bit_cast<uint64_t>(expected))
                << "hist " << h << " lines " << lines;
        }

        const std::vector<double> prefix = referencePrefix(hist);
        std::vector<uint64_t> rds = {0, 1, 15, 16, 17, 1000,
                                     LogHistogram::kInfinity,
                                     LogHistogram::kInfinity - 1,
                                     uint64_t{1} << 40, uint64_t{1} << 50};
        for (size_t i = 0; i < LogHistogram::numBuckets(); ++i) {
            rds.push_back(LogHistogram::bucketLo(i));
            rds.push_back(LogHistogram::bucketHi(i));
        }
        for (int i = 0; i < 64; ++i)
            rds.push_back(rng.nextBounded(
                (uint64_t{1} << rng.nextBounded(44)) + 1));
        for (uint64_t rd : rds) {
            EXPECT_EQ(std::bit_cast<uint64_t>(ss.stackDistance(rd)),
                      std::bit_cast<uint64_t>(
                          referenceStackDistance(hist, prefix, rd)))
                << "hist " << h << " rd " << rd;
        }
    }
}

} // namespace
} // namespace rppm
