/**
 * @file
 * Unit tests for src/profile: epoch delineation, per-thread and global
 * reuse distances, write-invalidation detection, micro-trace sampling,
 * condvar classification and Table-III sync counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "profile/profiler.hh"
#include "profile/serialize.hh"
#include "trace/trace_builder.hh"
#include "workload/suite.hh"
#include "workload/workload.hh"

namespace rppm {
namespace {

/** Single-thread trace wrapper. */
ColumnarTrace
singleThread(ThreadColumns thread)
{
    ColumnarTrace trace;
    trace.name = "single";
    trace.threads.push_back(std::move(thread));
    return trace;
}

TEST(Profiler, CountsOpsAndMix)
{
    ThreadColumns t;
    ThreadTraceBuilder b(t);
    for (int i = 0; i < 100; ++i)
        b.op(OpClass::IntAlu, 4 * (i % 16));
    for (int i = 0; i < 50; ++i)
        b.load(0x1000 + 64 * (i % 8), 0x100);
    for (int i = 0; i < 25; ++i)
        b.store(0x2000 + 64 * (i % 4), 0x104);
    for (int i = 0; i < 10; ++i)
        b.branch(0x108, true);

    const WorkloadProfile prof = profileWorkload(singleThread(std::move(t)));
    ASSERT_EQ(prof.threads.size(), 1u);
    ASSERT_EQ(prof.threads[0].epochs.size(), 1u);
    const EpochProfile &ep = prof.threads[0].epochs[0];
    EXPECT_EQ(ep.numOps, 185u);
    EXPECT_EQ(ep.numLoads, 50u);
    EXPECT_EQ(ep.numStores, 25u);
    EXPECT_EQ(ep.numBranches, 10u);
    EXPECT_EQ(ep.mix[static_cast<size_t>(OpClass::IntAlu)], 100u);
    EXPECT_EQ(ep.endType, SyncType::None);
}

TEST(Profiler, EpochsSplitAtSyncEvents)
{
    ColumnarTrace trace;
    trace.threads.resize(2);
    ThreadTraceBuilder main(trace.threads[0]);
    main.op(OpClass::IntAlu, 0);
    main.sync(SyncType::ThreadCreate, 1);
    main.op(OpClass::IntAlu, 4);
    main.op(OpClass::IntAlu, 8);
    main.sync(SyncType::ThreadJoin, 1);
    main.op(OpClass::IntAlu, 12);
    ThreadTraceBuilder worker(trace.threads[1]);
    worker.op(OpClass::IntAlu, 16);

    const WorkloadProfile prof = profileWorkload(trace);
    // Main: [1 op | Create] [2 ops | Join] [1 op | None] = 3 epochs.
    ASSERT_EQ(prof.threads[0].epochs.size(), 3u);
    EXPECT_EQ(prof.threads[0].epochs[0].numOps, 1u);
    EXPECT_EQ(prof.threads[0].epochs[0].endType, SyncType::ThreadCreate);
    EXPECT_EQ(prof.threads[0].epochs[1].numOps, 2u);
    EXPECT_EQ(prof.threads[0].epochs[1].endType, SyncType::ThreadJoin);
    EXPECT_EQ(prof.threads[0].epochs[2].numOps, 1u);
    EXPECT_EQ(prof.threads[0].epochs[2].endType, SyncType::None);
}

TEST(Profiler, MarkersDoNotSplitEpochs)
{
    ThreadColumns t;
    ThreadTraceBuilder b(t);
    b.op(OpClass::IntAlu, 0);
    b.sync(SyncType::CondMarker, 9);
    b.op(OpClass::IntAlu, 4);
    const WorkloadProfile prof = profileWorkload(singleThread(std::move(t)));
    ASSERT_EQ(prof.threads[0].epochs.size(), 1u);
    EXPECT_EQ(prof.threads[0].epochs[0].numOps, 2u);
}

TEST(Profiler, LocalReuseDistances)
{
    // Access pattern to one line: L, 3 fillers, L => reuse distance 3.
    ThreadColumns t;
    ThreadTraceBuilder b(t);
    b.load(0x1000, 0x0);
    b.load(0x2000, 0x4);
    b.load(0x3000, 0x8);
    b.load(0x4000, 0xc);
    b.load(0x1000, 0x10);
    const WorkloadProfile prof = profileWorkload(singleThread(std::move(t)));
    const EpochProfile &ep = prof.threads[0].epochs[0];
    // 4 cold accesses (infinite) + 1 access with reuse distance 3.
    EXPECT_EQ(ep.localRd.totalInfinite(), 4u);
    EXPECT_EQ(ep.localRd.totalFinite(), 1u);
    EXPECT_NEAR(ep.localRd.meanFinite(), 3.0, 1e-9);
}

TEST(Profiler, GlobalReuseSeesOtherThreads)
{
    // Two threads ping-pong on one line. Per-thread reuse distance is 0
    // fillers between own accesses... but globally the other thread's
    // access sits in between, and the line was last touched by the peer.
    ColumnarTrace trace;
    trace.threads.resize(2);
    ThreadTraceBuilder main(trace.threads[0]);
    main.sync(SyncType::ThreadCreate, 1);
    for (int i = 0; i < 100; ++i)
        main.load(0x5000, 0x0);
    main.sync(SyncType::ThreadJoin, 1);
    ThreadTraceBuilder worker(trace.threads[1]);
    for (int i = 0; i < 100; ++i)
        worker.load(0x5000, 0x40);

    const WorkloadProfile prof = profileWorkload(trace);
    // Global distances exist for both threads and are small (sharing).
    for (uint32_t tid = 0; tid < 2; ++tid) {
        uint64_t finite = 0;
        for (const auto &ep : prof.threads[tid].epochs)
            finite += ep.globalRd.totalFinite();
        EXPECT_GT(finite, 0u) << "thread " << tid;
    }
}

TEST(Profiler, WriteInvalidationRecordedAsInfinite)
{
    // Worker writes the line between two reads by main: main's second
    // read must be recorded as an invalidation (infinite local reuse
    // distance), per the paper's coherence modeling.
    ColumnarTrace trace;
    trace.threads.resize(2);
    ThreadTraceBuilder main(trace.threads[0]);
    main.load(0x9000, 0x0);            // main's first read (cold)
    main.sync(SyncType::ThreadCreate, 1);
    main.sync(SyncType::BarrierWait, 50);
    main.load(0x9000, 0x8);            // second read: invalidated
    main.sync(SyncType::ThreadJoin, 1);
    ThreadTraceBuilder worker(trace.threads[1]);
    worker.store(0x9000, 0x40);        // remote write in between
    worker.sync(SyncType::BarrierWait, 50);

    const WorkloadProfile prof = profileWorkload(trace);
    // Main's post-barrier epoch holds the invalidated read.
    const auto &epochs = prof.threads[0].epochs;
    uint64_t infinite_reads = 0;
    for (const auto &ep : epochs)
        infinite_reads += ep.loadLocalRd.totalInfinite();
    // Both the cold first read and the invalidated second read count.
    EXPECT_EQ(infinite_reads, 2u);
}

TEST(Profiler, OwnWriteDoesNotInvalidate)
{
    ThreadColumns t;
    ThreadTraceBuilder b(t);
    b.load(0x9000, 0x0);
    b.store(0x9000, 0x4);
    b.load(0x9000, 0x8);
    const WorkloadProfile prof = profileWorkload(singleThread(std::move(t)));
    const EpochProfile &ep = prof.threads[0].epochs[0];
    EXPECT_EQ(ep.localRd.totalInfinite(), 1u); // only the cold access
    EXPECT_EQ(ep.localRd.totalFinite(), 2u);
}

TEST(Profiler, MicroTraceSampledAtEpochStart)
{
    ThreadColumns t;
    ThreadTraceBuilder b(t);
    for (int i = 0; i < 500; ++i)
        b.op(OpClass::IntAlu, 4 * (i % 16), 1);
    const WorkloadProfile prof = profileWorkload(singleThread(std::move(t)));
    const EpochProfile &ep = prof.threads[0].epochs[0];
    ASSERT_EQ(ep.microTraces.size(), 1u);
    EXPECT_EQ(ep.microTraces[0].ops.size(), 500u); // whole short epoch
    EXPECT_EQ(ep.microTraces[0].ops[10].dep1, 1u);
}

TEST(Profiler, MicroTraceRespectsSamplingInterval)
{
    ThreadColumns t;
    ThreadTraceBuilder b(t);
    for (int i = 0; i < 30000; ++i)
        b.op(OpClass::IntAlu, 4 * (i % 16));
    ProfilerOptions opts;
    opts.microTraceLength = 100;
    opts.microTraceInterval = 10000;
    const WorkloadProfile prof =
        profileWorkload(singleThread(std::move(t)), opts);
    const EpochProfile &ep = prof.threads[0].epochs[0];
    // Samples at op 0, 10100, 20200 => 3 micro-traces of 100 ops.
    EXPECT_EQ(ep.microTraces.size(), 3u);
    for (const auto &mt : ep.microTraces)
        EXPECT_EQ(mt.ops.size(), 100u);
}

TEST(Profiler, LoadGapTracksSpacing)
{
    ThreadColumns t;
    ThreadTraceBuilder b(t);
    for (int i = 0; i < 100; ++i) {
        b.op(OpClass::IntAlu, 0);
        b.op(OpClass::IntAlu, 4);
        b.op(OpClass::IntAlu, 8);
        b.load(0x1000 + 64 * i, 0xc);
    }
    const WorkloadProfile prof = profileWorkload(singleThread(std::move(t)));
    const EpochProfile &ep = prof.threads[0].epochs[0];
    EXPECT_NEAR(ep.meanLoadGap(), 3.0, 0.1);
}

TEST(Profiler, PointerChaseDetected)
{
    ThreadColumns t;
    ThreadTraceBuilder b(t);
    b.load(0x1000, 0x0);
    for (int i = 0; i < 99; ++i)
        b.load(0x1000 + 64 * i, 0x4, 1); // each load depends on previous
    const WorkloadProfile prof = profileWorkload(singleThread(std::move(t)));
    const EpochProfile &ep = prof.threads[0].epochs[0];
    EXPECT_EQ(ep.loadsDependingOnLoad, 99u);
}

TEST(Profiler, BranchEntropyCollected)
{
    ThreadColumns t;
    ThreadTraceBuilder b(t);
    for (int i = 0; i < 1000; ++i)
        b.branch(0x100, i % 2 == 0); // coin flip branch
    const WorkloadProfile prof = profileWorkload(singleThread(std::move(t)));
    const EpochProfile &ep = prof.threads[0].epochs[0];
    EXPECT_NEAR(ep.branches.averageLinearEntropy(), 0.5, 1e-6);
}

TEST(Profiler, InstructionReuseDistances)
{
    ThreadColumns t;
    ThreadTraceBuilder b(t);
    // 4 distinct PC lines cycled: instruction reuse distance 3.
    for (int i = 0; i < 400; ++i)
        b.op(OpClass::IntAlu, 64 * (i % 4));
    const WorkloadProfile prof = profileWorkload(singleThread(std::move(t)));
    const EpochProfile &ep = prof.threads[0].epochs[0];
    EXPECT_EQ(ep.instrRd.totalInfinite(), 4u);
    EXPECT_NEAR(ep.instrRd.meanFinite(), 3.0, 0.1);
}

TEST(Profiler, SyncCountsMatchTableIiiCategories)
{
    WorkloadSpec spec;
    spec.numEpochs = 4;
    spec.csPerEpoch = 3;
    spec.queueItems = 5;
    spec.numWorkers = 3;
    const ColumnarTrace trace = synthesizeTrace(spec);
    const WorkloadProfile prof = profileWorkload(trace);
    EXPECT_EQ(prof.syncCounts.criticalSections, 4u * 4u * 3u);
    EXPECT_EQ(prof.syncCounts.barriers, 4u * 4u);
    EXPECT_EQ(prof.syncCounts.condVars, 10u); // 5 pushes + 5 pops
}

TEST(Profiler, CondBarrierClassifiedAsBarrier)
{
    WorkloadSpec spec;
    spec.numEpochs = 3;
    spec.barrierFlavor = BarrierFlavor::CondVar;
    const ColumnarTrace trace = synthesizeTrace(spec);
    const WorkloadProfile prof = profileWorkload(trace);
    bool found = false;
    for (const auto &[id, cls] : prof.condVarClasses) {
        if (cls == CondVarClass::BarrierLike)
            found = true;
    }
    EXPECT_TRUE(found);
}

TEST(Profiler, QueueClassifiedAsProducerConsumer)
{
    WorkloadSpec spec;
    spec.numEpochs = 1;
    spec.queueItems = 8;
    const ColumnarTrace trace = synthesizeTrace(spec);
    const WorkloadProfile prof = profileWorkload(trace);
    bool found = false;
    for (const auto &[id, cls] : prof.condVarClasses) {
        if (cls == CondVarClass::ProducerConsumer)
            found = true;
    }
    EXPECT_TRUE(found);
}

TEST(Profiler, TotalOpsMatchesTrace)
{
    WorkloadSpec spec;
    spec.numEpochs = 3;
    spec.opsPerEpoch = 3000;
    const ColumnarTrace trace = synthesizeTrace(spec);
    const WorkloadProfile prof = profileWorkload(trace);
    EXPECT_EQ(prof.totalOps(), trace.totalOps());
}

TEST(Profiler, BarrierPopulationExported)
{
    WorkloadSpec spec;
    spec.numEpochs = 2;
    spec.numWorkers = 3;
    spec.mainWorks = true;
    const ColumnarTrace trace = synthesizeTrace(spec);
    const WorkloadProfile prof = profileWorkload(trace);
    for (const auto &[id, pop] : prof.barrierPopulation)
        EXPECT_EQ(pop, 4u);
    EXPECT_FALSE(prof.barrierPopulation.empty());
}

TEST(Profiler, DeterministicAcrossRuns)
{
    WorkloadSpec spec;
    spec.numEpochs = 3;
    spec.opsPerEpoch = 2000;
    spec.csPerEpoch = 2;
    const ColumnarTrace trace = synthesizeTrace(spec);
    const WorkloadProfile a = profileWorkload(trace);
    const WorkloadProfile b = profileWorkload(trace);
    ASSERT_EQ(a.threads.size(), b.threads.size());
    for (size_t t = 0; t < a.threads.size(); ++t) {
        ASSERT_EQ(a.threads[t].epochs.size(), b.threads[t].epochs.size());
        for (size_t e = 0; e < a.threads[t].epochs.size(); ++e) {
            EXPECT_EQ(a.threads[t].epochs[e].numOps,
                      b.threads[t].epochs[e].numOps);
            EXPECT_EQ(a.threads[t].epochs[e].localRd.totalInfinite(),
                      b.threads[t].epochs[e].localRd.totalInfinite());
        }
    }
}

/** Every histogram of @p ep. */
std::vector<const LogHistogram *>
histograms(const EpochProfile &ep)
{
    return {&ep.depDist,     &ep.localRd, &ep.globalRd, &ep.loadLocalRd,
            &ep.loadGlobalRd, &ep.instrRd, &ep.loadGap};
}

/** Checks that every histogram of @p prof is frozen and holds only its
 *  non-empty buckets; returns the histogram heap bytes. */
uint64_t
expectFrozenHistograms(const WorkloadProfile &prof, const char *what)
{
    uint64_t heap = 0;
    uint64_t histograms_seen = 0;
    for (const ThreadProfile &thread : prof.threads) {
        for (const EpochProfile &ep : thread.epochs) {
            for (const LogHistogram *h : histograms(ep)) {
                EXPECT_TRUE(h->frozen()) << what;
                EXPECT_LE(h->heapBytes(),
                          h->nonEmptyBuckets() * (sizeof(uint64_t) + 1))
                    << what;
                heap += h->heapBytes();
                ++histograms_seen;
            }
        }
    }
    // A dense histogram would hold 160 eight-byte counters.
    EXPECT_LT(heap, histograms_seen * LogHistogram::numBuckets() *
                  sizeof(uint64_t) / 8)
        << what;
    return heap;
}

TEST(Profiler, ClosedEpochsHoldOnlyNonEmptyBuckets)
{
    // A sync-heavy suite kernel at test scale: thousands of short
    // epochs, each histogram filling a handful of the 160 buckets. The
    // profile keeps only those, and so does every deserialized copy.
    WorkloadSpec spec = findBenchmark("Fluidanimate")->spec;
    spec.opsPerEpoch = std::max<uint64_t>(1, spec.opsPerEpoch / 20);
    spec.initOps = std::max<uint64_t>(1, spec.initOps / 20);
    spec.finalOps = std::max<uint64_t>(1, spec.finalOps / 20);
    spec.itemOps = std::max<uint64_t>(1, spec.itemOps / 20);
    const ColumnarTrace trace = synthesizeTrace(spec);
    const WorkloadProfile prof = profileWorkload(trace);
    size_t epochs = 0;
    for (const ThreadProfile &thread : prof.threads)
        epochs += thread.epochs.size();
    EXPECT_GT(epochs, 1000u);
    const uint64_t heap = expectFrozenHistograms(prof, "profiled");
    // Segmented phase E: pendings insert into frozen epochs at stitch.
    ProfilerOptions par;
    par.jobs = 4;
    EXPECT_EQ(expectFrozenHistograms(profileWorkload(trace, par), "jobs 4"),
              heap);

    std::stringstream binary;
    saveProfileBinary(prof, binary);
    EXPECT_EQ(expectFrozenHistograms(loadProfileBinary(binary), "binary"),
              heap);
}

} // namespace
} // namespace rppm
