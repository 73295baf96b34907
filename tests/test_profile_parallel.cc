/**
 * @file
 * Differential tests for the profiler engine across job counts.
 *
 * The contract under test is absolute: profileWorkload() must produce a
 * profile *bit-identical* to the committed corpus
 * tests/golden/profile.txt — same histograms, same micro-traces, same
 * epoch structure, same synchronization classification — for every job
 * count (jobs == 1 runs the engine serially), with the trace profiled as
 * one window (streamChunkRecords == 0), on every kernel of
 * the workload suite, under custom profiler options, and through the
 * ProfileCache (same key, same serialized bytes, regardless of how many
 * profile workers produced the artifact). Equality is asserted through
 * the byte length and CRC32C of the deterministic RPPMPRF serialization.
 * This file also records the corpus (ProfileGolden below).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "golden.hh"
#include "profile/profiler.hh"
#include "profile/serialize.hh"
#include "profile_reference.hh"
#include "study/profile_cache.hh"
#include "study/source.hh"
#include "trace/columnar.hh"
#include "workload/suite.hh"
#include "workload/workload.hh"

namespace rppm {
namespace {

const unsigned kJobCounts[] = {1, 2, 4, 7};

TEST(ProfileGolden, CorpusCoversEveryCase)
{
    // Records tests/golden/profile.txt from the one-job, one-window
    // engine when RPPM_GOLDEN_WRITE names it (golden.hh). Otherwise the
    // corpus must hold exactly the cases the identity tests look up.
    const std::vector<ProfileCase> cases = profileCorpusCases();
    const std::string target = golden::writePath("profile.txt");
    if (!target.empty()) {
        std::vector<std::string> lines;
        for (const ProfileCase &c : cases) {
            const WorkloadProfile profile =
                profileWorkload(synthesizeTrace(c.spec), c.opts);
            lines.push_back(golden::digest(binaryProfileKey(c.key),
                                           serializeProfileBinary(profile)));
        }
        ASSERT_TRUE(golden::write(
            target,
            "# RPPM golden profile corpus: <workload>|<options>|rppmprf\n"
            "# then the byte length and CRC32C of the profile's RPPMPRF\n"
            "# serialization (profile/serialize.hh).\n"
            "# Written by tests/test_profile_parallel.cc; see "
            "tests/golden.hh before regenerating.\n",
            lines))
            << "cannot write " << target;
        return;
    }
    const std::map<std::string, std::string> corpus =
        golden::load("profile.txt");
    EXPECT_EQ(corpus.size(), cases.size());
    for (const ProfileCase &c : cases) {
        EXPECT_EQ(corpus.count(binaryProfileKey(c.key)), 1u)
            << "no corpus line for " << c.key;
    }
}

TEST(ParallelProfiler, BitIdenticalOnEveryKernelForEveryJobCount)
{
    // The central guarantee: on all 26 suite kernels, the one-window
    // profile serializes byte-for-byte identically to the corpus, for
    // every tested job count (including the serial run, jobs = 1).
    for (const SuiteEntry &entry : fullSuite()) {
        const WorkloadSpec spec = scaledSpec(entry);
        const ColumnarTrace cols = synthesizeTrace(spec);
        for (const unsigned jobs : kJobCounts) {
            ProfilerOptions opts;
            opts.jobs = jobs;
            EXPECT_TRUE(matchesProfileCorpus(profileKey(spec.name),
                                             profileWorkload(cols, opts)))
                << "jobs=" << jobs;
        }
    }
}

TEST(ParallelProfiler, BitIdenticalUnderCustomOptions)
{
    // Options that change profile *content* (sampling policy, quantum,
    // coherence detection, line size) must keep every job count on the
    // corpus: the schedule honors the quantum, the sharded
    // resolution honors detectInvalidation, the sweep honors the
    // sampling windows.
    const ColumnarTrace cols = synthesizeTrace(richSpec("par-test"));
    for (const auto &[name, proto] : customProfilerOptions()) {
        for (const unsigned jobs : kJobCounts) {
            ProfilerOptions opts = proto;
            opts.jobs = jobs;
            EXPECT_TRUE(matchesProfileCorpus(profileKey("par-test", name),
                                             profileWorkload(cols, opts)))
                << "jobs=" << jobs;
        }
    }
}

TEST(ParallelProfiler, AllHardwareThreadsMatchesCorpus)
{
    // jobs = 0 means "all hardware threads": whatever count that
    // resolves to on this machine, the profile is the corpus'.
    ProfilerOptions all;
    all.jobs = 0;
    const ColumnarTrace cols = synthesizeTrace(richSpec("par-test"));
    EXPECT_TRUE(matchesProfileCorpus(profileKey("par-test"),
                                     profileWorkload(cols, all)));
}

TEST(ParallelProfiler, JobsStayOutOfTheCacheKey)
{
    // "Profile once" must hold across job counts: the cache key carries
    // the options that shape profile content, never the worker count.
    ProfilerOptions a, b, c;
    a.jobs = 1;
    b.jobs = 4;
    c.jobs = 0;
    EXPECT_EQ(profilerOptionsKey(a), profilerOptionsKey(b));
    EXPECT_EQ(profilerOptionsKey(a), profilerOptionsKey(c));

    // Content-shaping options still produce distinct keys.
    ProfilerOptions d;
    d.quantum = 17;
    EXPECT_NE(profilerOptionsKey(a), profilerOptionsKey(d));
}

TEST(ParallelProfiler, CacheArtifactsIdenticalForAnyJobCount)
{
    // A ProfileCache fed by a 4-worker profiler must produce the same
    // serialized artifact — same path (key), same bytes — as one fed by
    // the serial profiler, and a cold cache must *hit* that artifact
    // regardless of the requesting job count.
    const auto dir = std::filesystem::temp_directory_path() /
        "rppm-par-cache-test";
    std::filesystem::remove_all(dir);

    const WorkloadSpec spec = richSpec("par-cache");
    const ColumnarTrace cols = synthesizeTrace(spec);

    ProfilerOptions serial;
    serial.jobs = 1;
    ProfilerOptions par;
    par.jobs = 4;

    ProfileCache cacheA;
    cacheA.setDirectory(dir.string());
    const auto fromSerial = cacheA.getOrCompute(
        spec.name, serial, [&] { return profileWorkload(cols, serial); });
    EXPECT_EQ(cacheA.pathFor(spec.name, serial),
              cacheA.pathFor(spec.name, par));
    std::ifstream artifact(cacheA.pathFor(spec.name, serial),
                           std::ios::binary);
    ASSERT_TRUE(artifact.good());
    std::stringstream artifactBytes;
    artifactBytes << artifact.rdbuf();

    // Fresh cache, same directory, parallel profiler: must be a disk
    // hit (the artifact the serial run wrote serves it) and identical.
    ProfileCache cacheB;
    cacheB.setDirectory(dir.string());
    const auto fromPar = cacheB.getOrCompute(
        spec.name, par, [&] { return profileWorkload(cols, par); });
    EXPECT_EQ(cacheB.stats().diskHits, 1u);
    EXPECT_TRUE(matchesProfileCorpus(profileKey(spec.name), *fromSerial));
    EXPECT_TRUE(matchesProfileCorpus(profileKey(spec.name), *fromPar));

    // And a parallel run into an empty directory writes the same bytes.
    const auto dir2 = std::filesystem::temp_directory_path() /
        "rppm-par-cache-test-2";
    std::filesystem::remove_all(dir2);
    ProfileCache cacheC;
    cacheC.setDirectory(dir2.string());
    cacheC.getOrCompute(spec.name, par,
                        [&] { return profileWorkload(cols, par); });
    std::ifstream artifact2(cacheC.pathFor(spec.name, par),
                            std::ios::binary);
    ASSERT_TRUE(artifact2.good());
    std::stringstream artifactBytes2;
    artifactBytes2 << artifact2.rdbuf();
    EXPECT_TRUE(artifactBytes.str() == artifactBytes2.str());

    std::filesystem::remove_all(dir);
    std::filesystem::remove_all(dir2);
}

TEST(ParallelProfiler, SingleThreadedWorkload)
{
    // Degenerate shape: one thread, no synchronization except the built-in
    // create/join scaffolding; the schedule and sharded resolution
    // must still reproduce the corpus exactly.
    const ColumnarTrace cols = synthesizeTrace(singleThreadSpec());
    for (const unsigned jobs : kJobCounts) {
        ProfilerOptions opts;
        opts.jobs = jobs;
        EXPECT_TRUE(matchesProfileCorpus(profileKey("single"),
                                         profileWorkload(cols, opts)))
            << "jobs=" << jobs;
    }
}

TEST(ParallelProfiler, HotSharedRegionMatchesCorpusForEveryJobCount)
{
    // A small, hot, written shared region makes coherence detection
    // change the profile, so the noinval case checks something the q17
    // case does not: the sharded resolution must honor
    // detectInvalidation for every job count.
    const ColumnarTrace cols = synthesizeTrace(hotSharedSpec());
    for (const auto &[name, proto] : hotSharedOptions()) {
        for (const unsigned jobs : kJobCounts) {
            ProfilerOptions opts = proto;
            opts.jobs = jobs;
            EXPECT_TRUE(matchesProfileCorpus(profileKey("hot-shared", name),
                                             profileWorkload(cols, opts)))
                << name << " jobs=" << jobs;
        }
    }
    const std::map<std::string, std::string> corpus =
        golden::load("profile.txt");
    const auto inval =
        corpus.find(binaryProfileKey(profileKey("hot-shared", "q17")));
    const auto noinval =
        corpus.find(binaryProfileKey(profileKey("hot-shared", "noinval")));
    ASSERT_TRUE(inval != corpus.end() && noinval != corpus.end());
    EXPECT_NE(inval->second.substr(inval->second.find(' ')),
              noinval->second.substr(noinval->second.find(' ')));
}

TEST(ParallelTraceSynthesis, JobCountDoesNotChangeTheTrace)
{
    // synthesizeTrace(spec, jobs) parallelizes per-thread stream
    // synthesis; the forked RNG streams make the result independent of
    // the worker count, so traces stay bit-reproducible.
    const WorkloadSpec spec = richSpec("par-gen");
    const ColumnarTrace serial = synthesizeTrace(spec, 1);
    for (const unsigned jobs : {2u, 4u, 7u, 0u}) {
        const ColumnarTrace par = synthesizeTrace(spec, jobs);
        EXPECT_TRUE(par == serial) << "jobs=" << jobs;
    }
}

TEST(WorkloadSourceConcurrency, ImmutableAfterPublishUnderHammer)
{
    // Regression test for the trace publication race: many threads
    // concurrently demand the trace and the profile of one
    // WorkloadSource. Immutable-after-publish semantics mean every
    // caller sees the same fully-built objects; under
    // -DRPPM_SANITIZE=thread this also proves the publication is
    // data-race-free.
    const WorkloadSpec spec = richSpec("par-source");
    WorkloadSource source(spec);
    ProfileCache cache;
    ProfilerOptions opts;
    opts.jobs = 2; // profile computation itself fans out, too

    constexpr int kHammerThreads = 8;
    std::vector<const ColumnarTrace *> traces(kHammerThreads);
    std::vector<std::shared_ptr<const WorkloadProfile>> profiles(
        kHammerThreads);
    std::vector<std::thread> threads;
    threads.reserve(kHammerThreads);
    for (int i = 0; i < kHammerThreads; ++i) {
        threads.emplace_back([&, i] {
            // Mix the access order and the synthesis job count so
            // publication is raced from every entry point.
            const unsigned jobs = i % 4 < 2 ? 1 : 4;
            if (i % 2 == 0) {
                traces[i] = &source.columnar(jobs);
                profiles[i] = source.profile(opts, cache);
            } else {
                profiles[i] = source.profile(opts, cache);
                traces[i] = &source.columnar(jobs);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    for (int i = 1; i < kHammerThreads; ++i) {
        EXPECT_EQ(traces[i], traces[0]);
        EXPECT_EQ(profiles[i].get(), profiles[0].get());
    }
    EXPECT_EQ(cache.stats().misses, 1u);
}

} // namespace
} // namespace rppm
