/**
 * @file
 * Differential tests for the profiler engine across job counts.
 *
 * The contract under test is absolute: profileWorkload() must produce a
 * profile *bit-identical* to the multi-pass reference
 * profileWorkloadLegacy() — same histograms, same micro-traces, same
 * epoch structure, same synchronization classification — for every job
 * count (jobs == 1 runs the engine serially), with the trace profiled as
 * one window (streamChunkRecords == 0), on every kernel of
 * the workload suite, under custom profiler options, and through the
 * ProfileCache (same key, same serialized bytes, regardless of how many
 * profile workers produced the artifact). Equality is asserted through
 * the deterministic text serializer against the reference text, computed
 * once per kernel and option set.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

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

std::string
serializeProfileBinary(const WorkloadProfile &profile)
{
    std::stringstream ss;
    saveProfileBinary(profile, ss);
    return ss.str();
}

/** A structurally rich workload: barriers, critical sections, a
 *  producer-consumer queue, shared data, coherence traffic. */
WorkloadSpec
richSpec(const char *name = "par-test")
{
    WorkloadSpec spec = barrierLoopSpec(4, 5, 2500);
    spec.name = name;
    spec.csPerEpoch = 2;
    spec.queueItems = 6;
    spec.kernel.sharedFrac = 0.25;
    spec.kernel.branchEntropy = 0.1;
    return spec;
}

const unsigned kJobCounts[] = {1, 2, 4, 7};

TEST(ParallelProfiler, BitIdenticalOnEveryKernelForEveryJobCount)
{
    // The central guarantee: on all 26 suite kernels, the one-window
    // profile serializes byte-for-byte identically to the legacy
    // reference's, for every tested job count (including the serial
    // run, jobs = 1).
    for (const SuiteEntry &entry : fullSuite()) {
        const WorkloadSpec spec = scaledSpec(entry);
        const WorkloadTrace trace = generateWorkload(spec);
        const ColumnarTrace cols = ColumnarTrace::fromWorkload(trace);
        const std::string legacy = legacyProfileText(trace);
        for (const unsigned jobs : kJobCounts) {
            ProfilerOptions opts;
            opts.jobs = jobs;
            // EXPECT_TRUE rather than EXPECT_EQ: on failure gtest would
            // try to print two multi-hundred-kB strings.
            EXPECT_TRUE(serializeProfileText(profileWorkload(cols, opts)) ==
                        legacy)
                << spec.name << " jobs=" << jobs;
        }
    }
}

TEST(ParallelProfiler, BitIdenticalUnderCustomOptions)
{
    // Options that change profile *content* (sampling policy, quantum,
    // coherence detection, line size) must keep sharded == legacy at
    // every job count: the schedule replay honors the quantum, the
    // sharded resolution honors detectInvalidation, the sweep honors the
    // sampling windows.
    ProfilerOptions base;
    base.quantum = 17;
    base.microTraceLength = 64;
    base.microTraceInterval = 500;

    ProfilerOptions noInval = base;
    noInval.detectInvalidation = false;

    ProfilerOptions bigLines = base;
    bigLines.lineBytes = 256;

    const WorkloadTrace trace = generateWorkload(richSpec());
    const ColumnarTrace cols = ColumnarTrace::fromWorkload(trace);
    for (const ProfilerOptions &proto : {base, noInval, bigLines}) {
        const std::string legacy = legacyProfileText(trace, proto);
        for (const unsigned jobs : kJobCounts) {
            ProfilerOptions opts = proto;
            opts.jobs = jobs;
            EXPECT_TRUE(serializeProfileText(profileWorkload(cols, opts)) ==
                        legacy)
                << "quantum=" << opts.quantum << " inv="
                << opts.detectInvalidation << " lb=" << opts.lineBytes
                << " jobs=" << jobs;
        }
    }
}

TEST(ParallelProfiler, AllHardwareThreadsMatchesLegacy)
{
    // jobs = 0 means "all hardware threads": whatever count that
    // resolves to on this machine, the profile is the reference's.
    const WorkloadTrace trace = generateWorkload(richSpec());
    ProfilerOptions all;
    all.jobs = 0;
    EXPECT_TRUE(serializeProfileText(profileWorkload(
                    ColumnarTrace::fromWorkload(trace), all)) ==
                legacyProfileText(trace));
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
    const WorkloadTrace trace = generateWorkload(spec);
    const ColumnarTrace cols = ColumnarTrace::fromWorkload(trace);

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
    EXPECT_TRUE(serializeProfileText(*fromSerial) ==
                legacyProfileText(trace));
    EXPECT_TRUE(serializeProfileText(*fromPar) == legacyProfileText(trace));
    EXPECT_TRUE(serializeProfileBinary(*fromSerial) ==
                serializeProfileBinary(*fromPar));

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
    // create/join scaffolding; the schedule replay and sharded resolution
    // must still agree with the legacy reference exactly.
    WorkloadSpec spec;
    spec.name = "single";
    spec.numWorkers = 1;
    spec.mainWorks = false;
    spec.numEpochs = 3;
    spec.opsPerEpoch = 4000;
    spec.barrierFlavor = BarrierFlavor::None;
    const WorkloadTrace trace = generateWorkload(spec);
    const ColumnarTrace cols = ColumnarTrace::fromWorkload(trace);
    const std::string legacy = legacyProfileText(trace);
    for (const unsigned jobs : kJobCounts) {
        ProfilerOptions opts;
        opts.jobs = jobs;
        EXPECT_TRUE(serializeProfileText(profileWorkload(cols, opts)) ==
                    legacy)
            << "jobs=" << jobs;
    }
}

TEST(ParallelTraceSynthesis, JobCountDoesNotChangeTheTrace)
{
    // generateWorkload(spec, jobs) parallelizes per-thread stream
    // synthesis; the forked RNG streams make the result independent of
    // the worker count, so traces stay bit-reproducible.
    const WorkloadSpec spec = richSpec("par-gen");
    const WorkloadTrace serial = generateWorkload(spec, 1);
    for (const unsigned jobs : {2u, 4u, 7u, 0u}) {
        const WorkloadTrace par = generateWorkload(spec, jobs);
        EXPECT_TRUE(ColumnarTrace::fromWorkload(par) ==
                    ColumnarTrace::fromWorkload(serial))
            << "jobs=" << jobs;
    }
}

TEST(WorkloadSourceConcurrency, ImmutableAfterPublishUnderHammer)
{
    // Regression test for the columnar-view publication race: many
    // threads concurrently demand the trace, the columnar view and the
    // profile of one WorkloadSource. Immutable-after-publish semantics
    // mean every caller sees the same fully-built objects; under
    // -DRPPM_SANITIZE=thread this also proves the publication is
    // data-race-free.
    const WorkloadSpec spec = richSpec("par-source");
    WorkloadSource source(spec);
    ProfileCache cache;
    ProfilerOptions opts;
    opts.jobs = 2; // profile computation itself fans out, too

    constexpr int kHammerThreads = 8;
    std::vector<const WorkloadTrace *> traces(kHammerThreads);
    std::vector<const ColumnarTrace *> columnars(kHammerThreads);
    std::vector<std::shared_ptr<const WorkloadProfile>> profiles(
        kHammerThreads);
    std::vector<std::thread> threads;
    threads.reserve(kHammerThreads);
    for (int i = 0; i < kHammerThreads; ++i) {
        threads.emplace_back([&, i] {
            // Mix the access order so publication is raced from every
            // entry point.
            if (i % 3 == 0) {
                traces[i] = &source.trace();
                columnars[i] = &source.columnar();
            } else if (i % 3 == 1) {
                columnars[i] = &source.columnar();
                traces[i] = &source.trace();
            }
            profiles[i] = source.profile(opts, cache);
            if (i % 3 == 2) {
                traces[i] = &source.trace();
                columnars[i] = &source.columnar();
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    for (int i = 1; i < kHammerThreads; ++i) {
        EXPECT_EQ(traces[i], traces[0]);
        EXPECT_EQ(columnars[i], columnars[0]);
        EXPECT_EQ(profiles[i].get(), profiles[0].get());
    }
    EXPECT_EQ(cache.stats().misses, 1u);
}

} // namespace
} // namespace rppm
