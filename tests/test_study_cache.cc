/**
 * @file
 * Tests for the Study profile cache: in-memory reuse across grid cells,
 * the serialized tier (a fresh Study reading another Study's profile
 * directory predicts bit-identically — extending the
 * predict(load(save(p))) == predict(p) guarantee of
 * profile/serialize.hh), and keying by profiler options.
 */

#include <gtest/gtest.h>

#include <filesystem>

#include "profile/profiler.hh"
#include "rppm/memo.hh"
#include "rppm/predictor.hh"
#include "statstack/epoch_stacks.hh"
#include "study/profile_cache.hh"
#include "study/study.hh"
#include "workload/workload.hh"

namespace rppm {
namespace {

WorkloadSpec
cacheSpec(const char *name)
{
    WorkloadSpec spec = barrierLoopSpec(3, 4, 2500);
    spec.name = name;
    spec.csPerEpoch = 2;
    spec.queueItems = 5;
    spec.kernel.sharedFrac = 0.2;
    spec.kernel.branchEntropy = 0.1;
    return spec;
}

/** A unique, self-cleaning temp directory per test. */
class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
        : path_(std::filesystem::temp_directory_path() /
                ("rppm_cache_test_" + tag))
    {
        std::filesystem::remove_all(path_);
    }
    ~TempDir() { std::filesystem::remove_all(path_); }
    std::string str() const { return path_.string(); }

  private:
    std::filesystem::path path_;
};

TEST(ProfileCache, MemoryTierComputesOnce)
{
    const WorkloadSpec spec = cacheSpec("cache-mem");
    const ColumnarTrace trace = synthesizeTrace(spec);

    ProfileCache cache;
    int computations = 0;
    auto compute = [&] {
        ++computations;
        return profileWorkload(trace);
    };
    const auto first = cache.getOrCompute(spec.name, {}, compute);
    const auto second = cache.getOrCompute(spec.name, {}, compute);
    EXPECT_EQ(computations, 1);
    EXPECT_EQ(first.get(), second.get()); // same shared instance

    const ProfileCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.memoryHits, 1u);
    EXPECT_EQ(stats.diskHits, 0u);
}

TEST(ProfileCache, KeyedByProfilerOptions)
{
    const WorkloadSpec spec = cacheSpec("cache-key");
    const ColumnarTrace trace = synthesizeTrace(spec);

    ProfilerOptions stripped;
    stripped.detectInvalidation = false;
    EXPECT_NE(profilerOptionsKey({}), profilerOptionsKey(stripped));

    ProfileCache cache;
    int computations = 0;
    auto computeWith = [&](const ProfilerOptions &opts) {
        return cache.getOrCompute(spec.name, opts, [&] {
            ++computations;
            return profileWorkload(trace, opts);
        });
    };
    computeWith({});
    computeWith(stripped);
    computeWith({});
    EXPECT_EQ(computations, 2); // one per distinct option set
}

TEST(ProfileCache, GridReusesOneProfileAcrossCells)
{
    const WorkloadSpec spec = cacheSpec("cache-grid");
    Study study;
    study.addWorkload(spec)
        .addConfigs(tableIvConfigs())
        .addEvaluator("rppm")
        .addEvaluator("main")
        .addEvaluator("crit")
        .jobs(4);
    study.run();
    // 5 configs x 3 profile-consuming evaluators, but one profiling run.
    EXPECT_EQ(study.profiles().stats().misses, 1u);
}

TEST(ProfileCache, SerializedTierPredictsBitIdentically)
{
    // Satellite requirement: a Study reading a serialized-profile
    // directory produces bit-identical predictions to in-memory
    // profiling.
    const TempDir dir("serialized");
    const WorkloadSpec spec = cacheSpec("cache-disk");

    auto runStudy = [&](bool useDir) {
        Study study;
        study.addWorkload(spec)
            .addConfigs(tableIvConfigs())
            .addEvaluator("rppm");
        if (useDir)
            study.profileDirectory(dir.str());
        return study.run();
    };

    // In-memory reference.
    const StudyResult memory = runStudy(false);

    // First directory-backed run profiles and serializes...
    runStudy(true);
    // ...the second one (fresh Study = fresh memory tier) must load
    // from disk.
    Study reloaded;
    reloaded.addWorkload(spec)
        .addConfigs(tableIvConfigs())
        .addEvaluator("rppm")
        .profileDirectory(dir.str());
    const StudyResult fromDisk = reloaded.run();

    const ProfileCache::Stats stats = reloaded.profiles().stats();
    EXPECT_EQ(stats.diskHits, 1u);
    EXPECT_EQ(stats.misses, 0u);

    ASSERT_EQ(memory.cells().size(), fromDisk.cells().size());
    for (size_t i = 0; i < memory.cells().size(); ++i) {
        EXPECT_DOUBLE_EQ(memory.cells()[i].cycles,
                         fromDisk.cells()[i].cycles) << i;
        EXPECT_DOUBLE_EQ(memory.cells()[i].seconds,
                         fromDisk.cells()[i].seconds) << i;
        // Per-thread detail is bit-identical too.
        const auto &a = memory.cells()[i].prediction;
        const auto &b = fromDisk.cells()[i].prediction;
        ASSERT_EQ(a.has_value(), b.has_value());
        ASSERT_EQ(a->threads.size(), b->threads.size());
        for (size_t t = 0; t < a->threads.size(); ++t) {
            EXPECT_DOUBLE_EQ(a->threads[t].activeCycles,
                             b->threads[t].activeCycles);
        }
    }

    // The serialized artifact lives where pathFor says.
    ProfileCache probe;
    probe.setDirectory(dir.str());
    EXPECT_TRUE(std::filesystem::exists(probe.pathFor(spec.name, {})));
}

TEST(ProfileCache, ClearMemoryForcesDiskReload)
{
    const TempDir dir("clear");
    ProfileCache cache;
    cache.setDirectory(dir.str());

    const WorkloadSpec spec = cacheSpec("cache-clear");
    const ColumnarTrace trace = synthesizeTrace(spec);
    auto compute = [&] { return profileWorkload(trace); };

    cache.getOrCompute(spec.name, {}, compute);
    cache.clearMemory();
    cache.getOrCompute(spec.name, {}, compute);

    const ProfileCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.diskHits, 1u);
}

TEST(ProfileCache, FailedComputationIsRetriable)
{
    ProfileCache cache;
    EXPECT_THROW(
        cache.getOrCompute("flaky", {},
                           []() -> WorkloadProfile {
                               throw std::runtime_error("profiler died");
                           }),
        std::runtime_error);

    // The failure was not cached: a later attempt succeeds.
    const WorkloadSpec spec = cacheSpec("flaky");
    const auto profile = cache.getOrCompute("flaky", {}, [&] {
        return profileWorkload(synthesizeTrace(spec));
    });
    EXPECT_EQ(profile->name, "flaky");
}

// ----------------------------------------------- byte-budgeted tier ---

TEST(ProfileCache, UnlimitedBudgetNeverEvicts)
{
    ProfileCache cache;
    for (const char *name : {"evict-a", "evict-b", "evict-c"}) {
        const WorkloadSpec spec = cacheSpec(name);
        cache.getOrCompute(
            name, {}, [&] { return profileWorkload(synthesizeTrace(spec)); });
    }
    const ProfileCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_EQ(stats.misses, 3u);
    EXPECT_GT(stats.residentBytes, 0u);
}

TEST(ProfileCache, BudgetEvictsLeastRecentlyUsed)
{
    ProfileCache cache;
    int computations = 0;
    auto computeFor = [&](const char *name) {
        return [&, name] {
            ++computations;
            return profileWorkload(synthesizeTrace(cacheSpec(name)));
        };
    };
    const auto a = cache.getOrCompute("evict-a", {}, computeFor("evict-a"));

    // A budget that fits roughly one profile: adding a second must push
    // the least-recently-used one out.
    cache.setMaxResidentBytes(a->approxResidentBytes() +
                              a->approxResidentBytes() / 2);
    cache.getOrCompute("evict-b", {}, computeFor("evict-b"));
    EXPECT_GE(cache.stats().evictions, 1u);

    // "evict-a" was evicted, so asking again recomputes...
    EXPECT_EQ(computations, 2);
    cache.getOrCompute("evict-a", {}, computeFor("evict-a"));
    EXPECT_EQ(computations, 3);

    // ...while holders of the old shared_ptr keep a live profile.
    EXPECT_EQ(a->name, "evict-a");

    // The budget caps residency within one entry's slack.
    EXPECT_LE(cache.stats().residentBytes,
              cache.maxResidentBytes() + a->approxResidentBytes());
}

TEST(ProfileCache, TouchRefreshesRecency)
{
    ProfileCache cache;
    int computations = 0;
    auto computeFor = [&](const char *name) {
        return [&, name] {
            ++computations;
            return profileWorkload(synthesizeTrace(cacheSpec(name)));
        };
    };
    const auto a = cache.getOrCompute("lru-a", {}, computeFor("lru-a"));
    cache.setMaxResidentBytes(2 * a->approxResidentBytes() +
                              a->approxResidentBytes() / 2);
    cache.getOrCompute("lru-b", {}, computeFor("lru-b"));

    // Touch "lru-a" so "lru-b" becomes the LRU victim of the next add.
    cache.getOrCompute("lru-a", {}, computeFor("lru-a"));
    cache.getOrCompute("lru-c", {}, computeFor("lru-c"));

    EXPECT_EQ(computations, 3);
    cache.getOrCompute("lru-a", {}, computeFor("lru-a")); // still resident
    EXPECT_EQ(computations, 3);
    cache.getOrCompute("lru-b", {}, computeFor("lru-b")); // was evicted
    EXPECT_EQ(computations, 4);
}

TEST(MemoPool, BudgetEvictsWholeEngines)
{
    const auto profileFor = [](const char *name) {
        return std::make_shared<const WorkloadProfile>(
            profileWorkload(synthesizeTrace(cacheSpec(name))));
    };
    const auto pa = profileFor("memo-a");
    const auto pb = profileFor("memo-b");

    PredictionMemoPool pool;
    EXPECT_EQ(pool.find(*pa), nullptr);
    const auto ea = pool.forProfile(pa);
    EXPECT_EQ(pool.forProfile(pa).get(), ea.get());
    EXPECT_EQ(pool.find(*pa).get(), ea.get());

    // Budget below one engine's footprint: each forProfile evicts the
    // other engine, but outstanding shared_ptrs stay fully usable.
    pool.setMaxResidentBytes(ea->approxResidentBytes() / 2);
    EXPECT_GE(pool.poolStats().evictions, 1u);
    const auto eb = pool.forProfile(pb);
    const auto ea2 = pool.forProfile(pa);
    EXPECT_NE(ea2.get(), ea.get()); // rebuilt after eviction
    EXPECT_GE(pool.poolStats().evictions, 2u);
    // Evicted engines are no longer found.
    EXPECT_EQ(pool.find(*pb), nullptr);

    // Evicted-then-rebuilt engines still predict bit-identically.
    const MulticoreConfig cfg = baseConfig();
    const RppmPrediction before = ea->predict(cfg);
    const RppmPrediction after = ea2->predict(cfg);
    EXPECT_EQ(before.totalCycles, after.totalCycles);
    EXPECT_EQ(before.threadSeconds, after.threadSeconds);
    (void)eb;
}

TEST(MemoPool, ChargeCoversEveryStackBundle)
{
    // The pool budget evicts by approxResidentBytes, so the charge must
    // grow with every StatStack bundle the engine keeps: each charges
    // itself, its stacks' slots and its per-load stack distances.
    const auto profile = std::make_shared<const WorkloadProfile>(
        profileWorkload(synthesizeTrace(cacheSpec("memo-charge"))));
    PredictionMemoPool pool;
    const auto engine = pool.forProfile(profile);
    const uint64_t before = engine->approxResidentBytes();
    ASSERT_EQ(engine->stats().stacksBuilt, 0u);

    engine->predict(baseConfig());
    const uint64_t built = engine->stats().stacksBuilt;
    ASSERT_GT(built, 0u);
    const uint64_t after = engine->approxResidentBytes();
    EXPECT_GE(after - before, built * sizeof(EpochStacks));

    // A predict on a second LLC size adds curve points, not bundles; the
    // charge still does not shrink.
    MulticoreConfig llc = baseConfig();
    llc.llc.sizeBytes *= 2;
    engine->predict(llc);
    EXPECT_EQ(engine->stats().stacksBuilt, built);
    EXPECT_GE(engine->approxResidentBytes(), after);
}

} // namespace
} // namespace rppm
