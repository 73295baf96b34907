/**
 * @file
 * Unit tests for src/sim: dynamic synchronization semantics (SyncState),
 * the multicore simulator, and bottlegraph construction.
 */

#include <gtest/gtest.h>

#include <unordered_map>

#include "sim/bottlegraph.hh"
#include "sim/simulator.hh"
#include "sim/sync_state.hh"
#include "trace/columnar.hh"
#include "trace/trace_builder.hh"
#include "workload/workload.hh"

namespace rppm {
namespace {

// ------------------------------------------------------------ SyncState ---

TEST(SyncState, WorkersStartBlocked)
{
    SyncState s(3, {});
    EXPECT_FALSE(s.blocked(0));
    EXPECT_TRUE(s.blocked(1));
    EXPECT_TRUE(s.blocked(2));
}

TEST(SyncState, CreateUnblocks)
{
    SyncState s(2, {});
    const auto out = s.apply(0, SyncType::ThreadCreate, 1, 10.0);
    EXPECT_FALSE(out.blocks);
    ASSERT_EQ(out.released.size(), 1u);
    EXPECT_EQ(out.released[0].first, 1u);
    EXPECT_DOUBLE_EQ(out.released[0].second, 10.0);
    EXPECT_FALSE(s.blocked(1));
}

TEST(SyncState, JoinBlocksUntilChildFinishes)
{
    SyncState s(2, {});
    s.apply(0, SyncType::ThreadCreate, 1, 0.0);
    const auto join = s.apply(0, SyncType::ThreadJoin, 1, 5.0);
    EXPECT_TRUE(join.blocks);
    EXPECT_TRUE(s.blocked(0));
    const auto fin = s.finish(1, 42.0);
    ASSERT_EQ(fin.released.size(), 1u);
    EXPECT_EQ(fin.released[0].first, 0u);
    EXPECT_DOUBLE_EQ(fin.released[0].second, 42.0);
    EXPECT_FALSE(s.blocked(0));
}

TEST(SyncState, JoinOfFinishedThreadReturnsImmediately)
{
    SyncState s(2, {});
    s.apply(0, SyncType::ThreadCreate, 1, 0.0);
    s.finish(1, 3.0);
    const auto join = s.apply(0, SyncType::ThreadJoin, 1, 9.0);
    EXPECT_FALSE(join.blocks);
}

TEST(SyncState, BarrierReleasesAtMaxArrival)
{
    SyncState s(3, {{7, 3}});
    for (uint32_t t = 1; t < 3; ++t)
        s.apply(0, SyncType::ThreadCreate, t, 0.0);
    EXPECT_TRUE(s.apply(0, SyncType::BarrierWait, 7, 50.0).blocks);
    EXPECT_TRUE(s.apply(1, SyncType::BarrierWait, 7, 30.0).blocks);
    const auto out = s.apply(2, SyncType::BarrierWait, 7, 20.0);
    EXPECT_FALSE(out.blocks);
    // Everyone (including the last arriver) is released at the *latest*
    // arrival time, 50.
    ASSERT_EQ(out.released.size(), 3u);
    for (const auto &[tid, when] : out.released)
        EXPECT_DOUBLE_EQ(when, 50.0);
}

TEST(SyncState, BarrierResetsForNextGeneration)
{
    SyncState s(2, {{7, 2}});
    s.apply(0, SyncType::ThreadCreate, 1, 0.0);
    EXPECT_TRUE(s.apply(0, SyncType::BarrierWait, 7, 1.0).blocks);
    EXPECT_FALSE(s.apply(1, SyncType::BarrierWait, 7, 2.0).blocks);
    // Second generation works the same way.
    EXPECT_TRUE(s.apply(1, SyncType::BarrierWait, 7, 3.0).blocks);
    const auto out = s.apply(0, SyncType::BarrierWait, 7, 9.0);
    EXPECT_FALSE(out.blocks);
    for (const auto &[tid, when] : out.released)
        EXPECT_DOUBLE_EQ(when, 9.0);
}

TEST(SyncState, CondBarrierBehavesLikeBarrier)
{
    SyncState s(2, {{9, 2}});
    s.apply(0, SyncType::ThreadCreate, 1, 0.0);
    EXPECT_TRUE(s.apply(0, SyncType::CondBarrier, 9, 5.0).blocks);
    const auto out = s.apply(1, SyncType::CondBarrier, 9, 8.0);
    EXPECT_FALSE(out.blocks);
    EXPECT_EQ(out.released.size(), 2u);
}

TEST(SyncState, MutexExclusionAndFifoHandoff)
{
    SyncState s(3, {});
    s.apply(0, SyncType::ThreadCreate, 1, 0.0);
    s.apply(0, SyncType::ThreadCreate, 2, 0.0);

    EXPECT_FALSE(s.apply(0, SyncType::MutexLock, 4, 1.0).blocks);
    EXPECT_TRUE(s.apply(1, SyncType::MutexLock, 4, 2.0).blocks);
    EXPECT_TRUE(s.apply(2, SyncType::MutexLock, 4, 3.0).blocks);

    // Unlock hands the mutex to the first waiter.
    auto out = s.apply(0, SyncType::MutexUnlock, 4, 10.0);
    ASSERT_EQ(out.released.size(), 1u);
    EXPECT_EQ(out.released[0].first, 1u);
    EXPECT_DOUBLE_EQ(out.released[0].second, 10.0);
    EXPECT_TRUE(s.blocked(2));

    out = s.apply(1, SyncType::MutexUnlock, 4, 20.0);
    ASSERT_EQ(out.released.size(), 1u);
    EXPECT_EQ(out.released[0].first, 2u);
}

TEST(SyncState, UncontendedMutexFree)
{
    SyncState s(1, {});
    EXPECT_FALSE(s.apply(0, SyncType::MutexLock, 4, 1.0).blocks);
    EXPECT_TRUE(s.apply(0, SyncType::MutexUnlock, 4, 2.0).released.empty());
    EXPECT_FALSE(s.apply(0, SyncType::MutexLock, 4, 3.0).blocks);
}

TEST(SyncState, QueuePopBlocksWhenEmpty)
{
    SyncState s(2, {});
    s.apply(0, SyncType::ThreadCreate, 1, 0.0);
    EXPECT_TRUE(s.apply(1, SyncType::QueuePop, 3, 2.0).blocks);
    const auto out = s.apply(0, SyncType::QueuePush, 3, 7.0);
    ASSERT_EQ(out.released.size(), 1u);
    EXPECT_EQ(out.released[0].first, 1u);
    EXPECT_DOUBLE_EQ(out.released[0].second, 7.0);
}

TEST(SyncState, QueuePopConsumesBufferedItem)
{
    SyncState s(2, {});
    s.apply(0, SyncType::ThreadCreate, 1, 0.0);
    s.apply(0, SyncType::QueuePush, 3, 1.0);
    s.apply(0, SyncType::QueuePush, 3, 2.0);
    EXPECT_FALSE(s.apply(1, SyncType::QueuePop, 3, 5.0).blocks);
    EXPECT_FALSE(s.apply(1, SyncType::QueuePop, 3, 6.0).blocks);
    EXPECT_TRUE(s.apply(1, SyncType::QueuePop, 3, 7.0).blocks);
}

TEST(SyncState, CondMarkerHasNoEffect)
{
    SyncState s(1, {});
    const auto out = s.apply(0, SyncType::CondMarker, 1, 1.0);
    EXPECT_FALSE(out.blocks);
    EXPECT_TRUE(out.released.empty());
}

TEST(SyncState, BarrierPopulationsFromTrace)
{
    // Barrier sizing reads only the sync columns: classic and
    // condvar-implemented barriers count their distinct participants.
    ColumnarTrace trace;
    trace.threads.resize(3);
    ThreadTraceBuilder b0(trace.threads[0]);
    b0.sync(SyncType::ThreadCreate, 1);
    b0.sync(SyncType::ThreadCreate, 2);
    b0.sync(SyncType::BarrierWait, 5);
    ThreadTraceBuilder b1(trace.threads[1]);
    b1.sync(SyncType::BarrierWait, 5);
    b1.sync(SyncType::CondBarrier, 6);
    ThreadTraceBuilder b2(trace.threads[2]);
    b2.sync(SyncType::CondBarrier, 6);
    const auto pop =
        trace.validateAndBarrierPopulations();
    EXPECT_EQ(pop.size(), 2u);
    EXPECT_EQ(pop.at(5), 2u);
    EXPECT_EQ(pop.at(6), 2u);

    // A synthesized barrier loop: two workers plus the working main
    // thread meet at the four rotating barrier ids.
    const ColumnarTrace loop_trace =
        synthesizeTrace(barrierLoopSpec(3, 4, 2500));
    const auto loop = loop_trace.validateAndBarrierPopulations();
    const std::unordered_map<uint32_t, uint32_t> expected = {
        {0x1000, 3}, {0x1001, 3}, {0x1002, 3}, {0x1003, 3}};
    EXPECT_EQ(loop, expected);
}

// ------------------------------------------------------------ Simulator ---

/** Build a trivial N-thread workload: create, work, barrier, work, join. */
ColumnarTrace
tinyWorkload(uint32_t workers, uint64_t ops, uint32_t barriers = 1)
{
    ColumnarTrace trace;
    trace.name = "tiny";
    trace.threads.resize(workers + 1);
    ThreadTraceBuilder main(trace.threads[0]);
    for (uint32_t w = 1; w <= workers; ++w)
        main.sync(SyncType::ThreadCreate, w);
    for (uint32_t b = 0; b < barriers; ++b) {
        for (uint64_t i = 0; i < ops; ++i)
            main.op(OpClass::IntAlu, 4 * static_cast<uint32_t>(i % 64));
        main.sync(SyncType::BarrierWait, 100 + b);
    }
    for (uint32_t w = 1; w <= workers; ++w)
        main.sync(SyncType::ThreadJoin, w);

    for (uint32_t w = 1; w <= workers; ++w) {
        ThreadTraceBuilder worker(trace.threads[w]);
        for (uint32_t b = 0; b < barriers; ++b) {
            for (uint64_t i = 0; i < ops * w; ++i)
                worker.op(OpClass::IntAlu,
                          4 * static_cast<uint32_t>(i % 64));
            worker.sync(SyncType::BarrierWait, 100 + b);
        }
    }
    return trace;
}

TEST(Simulator, Deterministic)
{
    const ColumnarTrace trace = tinyWorkload(3, 500, 3);
    const MulticoreConfig cfg = baseConfig();
    const SimResult a = simulate(trace, cfg);
    const SimResult b = simulate(trace, cfg);
    EXPECT_DOUBLE_EQ(a.totalCycles, b.totalCycles);
    for (size_t t = 0; t < a.threads.size(); ++t)
        EXPECT_DOUBLE_EQ(a.threads[t].finishTime, b.threads[t].finishTime);
}

TEST(Simulator, SlowestThreadDeterminesBarrierTiming)
{
    // Worker 3 does 3x the work of worker 1; everyone waits for it.
    const ColumnarTrace trace = tinyWorkload(3, 2000, 1);
    const SimResult res = simulate(trace, baseConfig());
    // Worker 1 must have substantial sync idle time; worker 3 little.
    EXPECT_GT(res.threads[1].syncCycles, res.threads[3].syncCycles * 2);
}

TEST(Simulator, TotalIsMaxThreadFinish)
{
    const ColumnarTrace trace = tinyWorkload(2, 1000, 2);
    const SimResult res = simulate(trace, baseConfig());
    double max_finish = 0.0;
    for (const auto &t : res.threads)
        max_finish = std::max(max_finish, t.finishTime);
    EXPECT_DOUBLE_EQ(res.totalCycles, max_finish);
    EXPECT_GT(res.totalCycles, 0.0);
}

TEST(Simulator, MainFinishesLast)
{
    // Main joins all workers, so its finish time is the total.
    const ColumnarTrace trace = tinyWorkload(3, 800, 2);
    const SimResult res = simulate(trace, baseConfig());
    EXPECT_DOUBLE_EQ(res.totalCycles, res.threads[0].finishTime);
}

TEST(Simulator, MutexSerializesCriticalSections)
{
    // Two workers each run K critical sections of L ops protected by one
    // mutex; with no other work, execution is fully serialized.
    ColumnarTrace trace;
    trace.name = "cs";
    trace.threads.resize(3);
    ThreadTraceBuilder main(trace.threads[0]);
    main.sync(SyncType::ThreadCreate, 1);
    main.sync(SyncType::ThreadCreate, 2);
    main.sync(SyncType::ThreadJoin, 1);
    main.sync(SyncType::ThreadJoin, 2);
    const int sections = 20;
    const int len = 400;
    for (uint32_t w = 1; w <= 2; ++w) {
        ThreadTraceBuilder worker(trace.threads[w]);
        for (int s = 0; s < sections; ++s) {
            worker.sync(SyncType::MutexLock, 77);
            for (int i = 0; i < len; ++i)
                worker.op(OpClass::IntAlu, 4 * (i % 32), 1);
            worker.sync(SyncType::MutexUnlock, 77);
        }
    }
    const SimResult res = simulate(trace, baseConfig());
    // Serial chain of IntAlu: ~1 cycle/op. Two workers x 20 x 400 ops
    // must take at least ~16000 cycles (fully serialized).
    EXPECT_GT(res.totalCycles, 0.9 * 2 * sections * len);
}

TEST(Simulator, JoinOnlyWorkloadOverlaps)
{
    // Without a mutex, the two workers overlap almost perfectly.
    ColumnarTrace trace;
    trace.name = "overlap";
    trace.threads.resize(3);
    ThreadTraceBuilder main(trace.threads[0]);
    main.sync(SyncType::ThreadCreate, 1);
    main.sync(SyncType::ThreadCreate, 2);
    main.sync(SyncType::ThreadJoin, 1);
    main.sync(SyncType::ThreadJoin, 2);
    const int n = 8000;
    for (uint32_t w = 1; w <= 2; ++w) {
        ThreadTraceBuilder worker(trace.threads[w]);
        for (int i = 0; i < n; ++i)
            worker.op(OpClass::IntAlu, 4 * (i % 32), 1);
    }
    const SimResult res = simulate(trace, baseConfig());
    // Serial per-thread time ~n cycles; parallel total must be ~n, not 2n.
    EXPECT_LT(res.totalCycles, 1.3 * n);
}

TEST(Simulator, ProducerConsumerQueue)
{
    ColumnarTrace trace;
    trace.name = "queue";
    trace.threads.resize(2);
    ThreadTraceBuilder main(trace.threads[0]);
    main.sync(SyncType::ThreadCreate, 1);
    const int items = 10;
    for (int i = 0; i < items; ++i) {
        for (int j = 0; j < 1000; ++j)
            main.op(OpClass::IntAlu, 4 * (j % 16), 1);
        main.sync(SyncType::QueuePush, 55);
    }
    main.sync(SyncType::ThreadJoin, 1);
    ThreadTraceBuilder worker(trace.threads[1]);
    for (int i = 0; i < items; ++i) {
        worker.sync(SyncType::QueuePop, 55);
        for (int j = 0; j < 100; ++j)
            worker.op(OpClass::IntAlu, 4 * (j % 16), 1);
    }
    const SimResult res = simulate(trace, baseConfig());
    // The consumer is rate-limited by the producer: it must idle most of
    // the time (production takes ~10x consumption).
    EXPECT_GT(res.threads[1].syncCycles, res.threads[1].activeCycles);
}

TEST(Simulator, HigherFrequencyShortensSeconds)
{
    const ColumnarTrace trace = tinyWorkload(2, 2000, 1);
    MulticoreConfig fast = baseConfig();
    fast.eachCore([](CoreConfig &c) { c.frequencyGHz = 5.0; });
    const SimResult base = simulate(trace, baseConfig());
    const SimResult faster = simulate(trace, fast);
    // Same cycle count (frequency does not change cycle behaviour here
    // since memory latency is in cycles), but fewer seconds.
    EXPECT_LT(faster.totalSeconds, base.totalSeconds);
}

TEST(Simulator, WiderCoreIsFaster)
{
    const ColumnarTrace trace = tinyWorkload(2, 5000, 1);
    MulticoreConfig narrow = baseConfig();
    narrow.eachCore([](CoreConfig &c) {
        c.dispatchWidth = 1;
        c.issueQueueSize = 16;
    });
    const SimResult wide = simulate(trace, baseConfig());
    const SimResult slim = simulate(trace, narrow);
    EXPECT_GT(slim.totalCycles, wide.totalCycles * 1.5);
}

TEST(Simulator, CpiStackAccountsTotal)
{
    const ColumnarTrace trace = tinyWorkload(3, 1500, 2);
    const SimResult res = simulate(trace, baseConfig());
    for (const auto &t : res.threads) {
        if (t.instructions == 0)
            continue;
        EXPECT_NEAR(t.cpi.total(), t.finishTime, t.finishTime * 0.05);
    }
}

TEST(Simulator, DeadlockDetected)
{
    // A thread waiting on a barrier nobody else reaches... a barrier with
    // population 2 where the second participant never arrives because it
    // first waits on an empty queue.
    ColumnarTrace trace;
    trace.threads.resize(2);
    ThreadTraceBuilder main(trace.threads[0]);
    main.sync(SyncType::ThreadCreate, 1);
    main.sync(SyncType::BarrierWait, 1);
    ThreadTraceBuilder worker(trace.threads[1]);
    worker.sync(SyncType::QueuePop, 2); // blocks forever
    worker.sync(SyncType::BarrierWait, 1);
    EXPECT_THROW(simulate(trace, baseConfig()), std::invalid_argument);
}

TEST(Simulator, ActivityIntervalsCoverBusyTime)
{
    const ColumnarTrace trace = tinyWorkload(2, 1000, 2);
    const SimResult res = simulate(trace, baseConfig());
    for (const auto &t : res.threads) {
        double covered = 0.0;
        for (const auto &iv : t.activity) {
            EXPECT_LE(iv.begin, iv.end);
            covered += iv.end - iv.begin;
        }
        // Busy coverage roughly matches active cycles (sync overhead ops
        // are inside activity intervals, so allow slack).
        EXPECT_GT(covered, 0.0);
        EXPECT_LE(covered, t.finishTime + 1e-9);
    }
}

// ----------------------------------------------------------- Bottlegraph ---

TEST(Bottlegraph, BalancedThreadsShareEvenly)
{
    std::vector<std::vector<ActivityInterval>> activity(4);
    for (auto &a : activity)
        a.push_back({0.0, 100.0});
    const Bottlegraph g = buildBottlegraph(activity, 100.0);
    for (uint32_t t = 0; t < 4; ++t)
        EXPECT_NEAR(g.normalizedHeight(t), 0.25, 1e-9);
    for (const auto &box : g.boxes)
        EXPECT_NEAR(box.parallelism, 4.0, 1e-9);
}

TEST(Bottlegraph, HeightsSumToTotal)
{
    std::vector<std::vector<ActivityInterval>> activity(3);
    activity[0] = {{0.0, 50.0}, {80.0, 100.0}};
    activity[1] = {{0.0, 70.0}};
    activity[2] = {{30.0, 100.0}};
    const Bottlegraph g = buildBottlegraph(activity, 100.0);
    double sum = 0.0;
    for (const auto &box : g.boxes)
        sum += box.height;
    // Heights sum to the union of busy time (100 here).
    EXPECT_NEAR(sum, 100.0, 1e-9);
}

TEST(Bottlegraph, SequentialThreadIsBottleneck)
{
    // Thread 0 runs alone half the time: it gets the tallest box.
    std::vector<std::vector<ActivityInterval>> activity(2);
    activity[0] = {{0.0, 100.0}};
    activity[1] = {{0.0, 50.0}};
    const Bottlegraph g = buildBottlegraph(activity, 100.0);
    EXPECT_GT(g.normalizedHeight(0), g.normalizedHeight(1) * 2.0);
    // Thread 0's average parallelism: 50 cycles at 2, 50 at 1 => 100/75.
    for (const auto &box : g.boxes) {
        if (box.thread == 0) {
            EXPECT_NEAR(box.parallelism, 100.0 / 75.0, 1e-9);
        }
    }
}

TEST(Bottlegraph, SimilarityIdenticalIsOne)
{
    std::vector<std::vector<ActivityInterval>> activity(2);
    activity[0] = {{0.0, 100.0}};
    activity[1] = {{0.0, 60.0}};
    const Bottlegraph a = buildBottlegraph(activity, 100.0);
    const Bottlegraph b = buildBottlegraph(activity, 100.0);
    EXPECT_NEAR(bottlegraphSimilarity(a, b), 1.0, 1e-12);
}

TEST(Bottlegraph, SimilarityDetectsDifference)
{
    std::vector<std::vector<ActivityInterval>> a_act(2), b_act(2);
    a_act[0] = {{0.0, 100.0}};
    a_act[1] = {{0.0, 100.0}};
    b_act[0] = {{0.0, 100.0}};
    b_act[1] = {{0.0, 1.0}};
    const Bottlegraph a = buildBottlegraph(a_act, 100.0);
    const Bottlegraph b = buildBottlegraph(b_act, 100.0);
    EXPECT_LT(bottlegraphSimilarity(a, b), 0.7);
}

TEST(Bottlegraph, RenderContainsThreads)
{
    std::vector<std::vector<ActivityInterval>> activity(2);
    activity[0] = {{0.0, 100.0}};
    activity[1] = {{0.0, 60.0}};
    const Bottlegraph g = buildBottlegraph(activity, 100.0);
    const std::string out = g.render("test");
    EXPECT_NE(out.find("T0"), std::string::npos);
    EXPECT_NE(out.find("T1"), std::string::npos);
}

} // namespace
} // namespace rppm
