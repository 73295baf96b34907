/**
 * @file
 * Tests for the finer model mechanisms added on top of the basic Eq. 1
 * pipeline: ablation switches, flush-emulating replays, entropy-driven
 * miss rates, coarse-time causality fixes in the synchronization state
 * (join return times, queue item timestamps, barrier max-arrival), and
 * the interaction of profiler options with the model.
 */

#include <gtest/gtest.h>

#include "profile/profiler.hh"
#include "rppm/branch_model.hh"
#include "rppm/ilp_model.hh"
#include "rppm/predictor.hh"
#include "rppm/thread_model.hh"
#include "sim/simulator.hh"
#include "sim/sync_state.hh"
#include "trace/trace_builder.hh"
#include "workload/workload.hh"

namespace rppm {
namespace {

// ------------------------------------------------- flush-emulated replay ---

MicroTrace
branchyTrace(size_t n, int branch_every)
{
    MicroTrace mt;
    for (size_t i = 0; i < n; ++i) {
        MicroTraceOp op;
        op.op = (i % branch_every == 0) ? OpClass::Branch : OpClass::IntAlu;
        op.dep1 = i % 3 == 0 ? 2 : 0;
        mt.ops.push_back(op);
    }
    return mt;
}

TEST(FlushReplay, ZeroMissRateMatchesPlainReplay)
{
    const MicroTrace mt = branchyTrace(2000, 5);
    const CoreConfig core = baseConfig().core();
    const auto lat = [](const MicroTraceOp &) { return 3.0; };
    const IlpResult plain = replayMicroTrace(mt, core, lat);
    const IlpResult flush = replayMicroTrace(mt, core, lat, 0.0, 0.0);
    EXPECT_DOUBLE_EQ(plain.ipc, flush.ipc);
}

TEST(FlushReplay, MissRateLowersIpc)
{
    const MicroTrace mt = branchyTrace(2000, 5);
    const CoreConfig core = baseConfig().core();
    const auto lat = [](const MicroTraceOp &) { return 3.0; };
    const double ipc_perfect =
        replayMicroTrace(mt, core, lat, 0.0, 0.0).ipc;
    const double ipc_half = replayMicroTrace(mt, core, lat, 0.0, 0.5).ipc;
    const double ipc_all = replayMicroTrace(mt, core, lat, 0.0, 1.0).ipc;
    EXPECT_GT(ipc_perfect, ipc_half);
    EXPECT_GT(ipc_half, ipc_all);
}

TEST(FlushReplay, MonotoneInMissRate)
{
    const MicroTrace mt = branchyTrace(3000, 4);
    const CoreConfig core = baseConfig().core();
    const auto lat = [](const MicroTraceOp &) { return 3.0; };
    double prev = 1e9;
    for (double rate : {0.0, 0.1, 0.2, 0.4, 0.8}) {
        const double ipc = replayMicroTrace(mt, core, lat, 0.0, rate).ipc;
        EXPECT_LE(ipc, prev + 1e-12) << rate;
        prev = ipc;
    }
}

TEST(FlushReplay, FetchStallLowersIpc)
{
    const MicroTrace mt = branchyTrace(2000, 100);
    const CoreConfig core = baseConfig().core();
    const auto lat = [](const MicroTraceOp &) { return 3.0; };
    const double fast = replayMicroTrace(mt, core, lat, 0.0).ipc;
    const double slow = replayMicroTrace(mt, core, lat, 1.0).ipc;
    // One extra front-end cycle per op caps IPC at ~1/(1/width + 1).
    EXPECT_GT(fast, slow * 1.5);
    EXPECT_LT(slow, 1.0);
}

TEST(FlushReplay, BranchPenaltyBoundedByResolutionPlusRefill)
{
    const MicroTrace mt = branchyTrace(2000, 5);
    const CoreConfig core = baseConfig().core();
    const auto lat = [](const MicroTraceOp &) { return 3.0; };
    const IlpResult r = replayMicroTrace(mt, core, lat);
    EXPECT_GE(r.branchPenalty, 0.0);
    EXPECT_LE(r.branchPenalty,
              r.branchResolution + core.frontendDepth + 1e-9);
}

// ------------------------------------------------------ branch miss rate ---

/** The entropy-predicted miss rate of @p epoch on Base's predictor. */
double
baseMissRate(const EpochProfile &epoch)
{
    return epochBranchMissRate(
        EpochStacks(epoch, true),
        BranchModelCache::instance().get(baseConfig().core().branch));
}

TEST(BranchMissRate, ZeroForBranchlessEpoch)
{
    EpochProfile epoch;
    epoch.numOps = 100;
    EXPECT_DOUBLE_EQ(baseMissRate(epoch), 0.0);
}

TEST(BranchMissRate, GrowsWithEntropy)
{
    EpochProfile low, high;
    low.numOps = high.numOps = 1000;
    low.numBranches = high.numBranches = 100;
    for (int i = 0; i < 100; ++i) {
        low.branches.record(0x100, true);           // biased
        high.branches.record(0x100, i % 2 == 0);    // coin flip
    }
    EXPECT_LT(baseMissRate(low), baseMissRate(high));
}

// ------------------------------------------------------ ablation switches ---

class AblationTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        WorkloadSpec spec = barrierLoopSpec(4, 6, 4000);
        spec.kernel.sharedFrac = 0.3;
        spec.kernel.sharedWriteFrac = 0.4;
        spec.kernel.privateBytes = 4 << 20;
        spec.kernel.branchEntropy = 0.2;
        spec.kernel.fracBranch = 0.15;
        trace_ = synthesizeTrace(spec);
        profile_ = profileWorkload(trace_);
    }

    ColumnarTrace trace_;
    WorkloadProfile profile_;
};

TEST_F(AblationTest, DefaultEqualsExplicitFullModel)
{
    RppmOptions full;
    const double a = predict(profile_, baseConfig()).totalCycles;
    const double b = predict(profile_, baseConfig(), full).totalCycles;
    EXPECT_DOUBLE_EQ(a, b);
}

TEST_F(AblationTest, NoMlpOverlapPredictsMoreCycles)
{
    RppmOptions no_mlp;
    no_mlp.eq1.mlpOverlap = false;
    const double full = predict(profile_, baseConfig()).totalCycles;
    const double serial =
        predict(profile_, baseConfig(), no_mlp).totalCycles;
    EXPECT_GT(serial, full);
}

TEST_F(AblationTest, NoBranchPredictsFewerCycles)
{
    RppmOptions no_branch;
    no_branch.eq1.branch = false;
    const double full = predict(profile_, baseConfig()).totalCycles;
    const double perfect =
        predict(profile_, baseConfig(), no_branch).totalCycles;
    EXPECT_LT(perfect, full);
}

TEST_F(AblationTest, NoIlpReplayStillPositive)
{
    RppmOptions no_ilp;
    no_ilp.eq1.ilpReplay = false;
    const RppmPrediction pred =
        predict(profile_, baseConfig(), no_ilp);
    EXPECT_GT(pred.totalCycles, 0.0);
    for (const auto &thread : pred.threads) {
        for (const auto &epoch : thread.epochs) {
            if (epoch.cycles > 0.0) { // empty epochs keep the default
                EXPECT_DOUBLE_EQ(
                    epoch.deff,
                    static_cast<double>(baseConfig().core().dispatchWidth));
            }
        }
    }
}

TEST_F(AblationTest, LocalRdForLlcChangesPrediction)
{
    RppmOptions local;
    local.eq1.llcUsesGlobalRd = false;
    const double with_global =
        predict(profile_, baseConfig()).totalCycles;
    const double with_local =
        predict(profile_, baseConfig(), local).totalCycles;
    // Shared-heavy workload: interference modeling must matter.
    EXPECT_NE(with_global, with_local);
}

TEST_F(AblationTest, FastModeMatchesDecomposedTotal)
{
    RppmOptions fast;
    fast.eq1.decompose = false;
    const RppmPrediction full = predict(profile_, baseConfig());
    const RppmPrediction quick =
        predict(profile_, baseConfig(), fast);
    // The decomposed components telescope to the final replay, so the
    // fast path predicts the same total (up to component clamping).
    EXPECT_NEAR(quick.totalCycles / full.totalCycles, 1.0, 0.02);
    // ...but reports everything as Base.
    for (const auto &thread : quick.threads) {
        EXPECT_DOUBLE_EQ(thread.stack[CpiComponent::MemDram], 0.0);
        EXPECT_DOUBLE_EQ(thread.stack[CpiComponent::Branch], 0.0);
    }
}

TEST_F(AblationTest, ProfilerInvalidationSwitch)
{
    ProfilerOptions no_coh;
    no_coh.detectInvalidation = false;
    const WorkloadProfile stripped = profileWorkload(trace_, no_coh);
    uint64_t with_inv = 0, without_inv = 0;
    for (uint32_t t = 0; t < profile_.numThreads; ++t) {
        for (size_t e = 0; e < profile_.threads[t].epochs.size(); ++e) {
            with_inv +=
                profile_.threads[t].epochs[e].localRd.totalInfinite();
            without_inv +=
                stripped.threads[t].epochs[e].localRd.totalInfinite();
        }
    }
    // Write sharing is heavy here: invalidation detection must add
    // infinite reuse distances.
    EXPECT_GT(with_inv, without_inv);
}

// ------------------------------------------------ coarse-time causality ---

TEST(SyncCausality, JoinReturnsAtChildFinishTime)
{
    SyncState s(2, {});
    s.apply(0, SyncType::ThreadCreate, 1, 0.0);
    // Child's symbolic timeline completes at t=500 before the parent
    // even arrives at the join (coarse epoch jumps).
    s.finish(1, 500.0);
    const auto out = s.apply(0, SyncType::ThreadJoin, 1, 100.0);
    EXPECT_FALSE(out.blocks);
    ASSERT_EQ(out.released.size(), 1u);
    EXPECT_EQ(out.released[0].first, 0u);
    EXPECT_DOUBLE_EQ(out.released[0].second, 500.0);
}

TEST(SyncCausality, JoinAfterChildFinishNoAdjustment)
{
    SyncState s(2, {});
    s.apply(0, SyncType::ThreadCreate, 1, 0.0);
    s.finish(1, 50.0);
    const auto out = s.apply(0, SyncType::ThreadJoin, 1, 100.0);
    EXPECT_FALSE(out.blocks);
    EXPECT_TRUE(out.released.empty());
}

TEST(SyncCausality, QueueItemCannotBeConsumedBeforeProduced)
{
    SyncState s(2, {});
    s.apply(0, SyncType::ThreadCreate, 1, 0.0);
    // Producer pushes at t=300 (its coarse timeline ran ahead).
    s.apply(0, SyncType::QueuePush, 7, 300.0);
    // Consumer pops at its local t=10: it must be advanced to t=300.
    const auto out = s.apply(1, SyncType::QueuePop, 7, 10.0);
    EXPECT_FALSE(out.blocks);
    ASSERT_EQ(out.released.size(), 1u);
    EXPECT_DOUBLE_EQ(out.released[0].second, 300.0);
}

TEST(SyncCausality, QueueItemInPastNeedsNoAdjustment)
{
    SyncState s(2, {});
    s.apply(0, SyncType::ThreadCreate, 1, 0.0);
    s.apply(0, SyncType::QueuePush, 7, 5.0);
    const auto out = s.apply(1, SyncType::QueuePop, 7, 10.0);
    EXPECT_FALSE(out.blocks);
    EXPECT_TRUE(out.released.empty());
}

TEST(SyncCausality, QueueItemsConsumedInFifoOrder)
{
    SyncState s(2, {});
    s.apply(0, SyncType::ThreadCreate, 1, 0.0);
    s.apply(0, SyncType::QueuePush, 7, 100.0);
    s.apply(0, SyncType::QueuePush, 7, 200.0);
    auto out = s.apply(1, SyncType::QueuePop, 7, 0.0);
    ASSERT_EQ(out.released.size(), 1u);
    EXPECT_DOUBLE_EQ(out.released[0].second, 100.0);
    out = s.apply(1, SyncType::QueuePop, 7, 150.0);
    ASSERT_EQ(out.released.size(), 1u);
    EXPECT_DOUBLE_EQ(out.released[0].second, 200.0);
}

TEST(SyncCausality, BarrierLastApplierAdvancedToMaxArrival)
{
    SyncState s(2, {{3, 2}});
    s.apply(0, SyncType::ThreadCreate, 1, 0.0);
    // Thread 1's coarse timeline arrives at 900, applies first, blocks.
    EXPECT_TRUE(s.apply(1, SyncType::BarrierWait, 3, 900.0).blocks);
    // Thread 0 arrives "later" in apply order but earlier in time: the
    // barrier opens at 900 for both.
    const auto out = s.apply(0, SyncType::BarrierWait, 3, 100.0);
    EXPECT_FALSE(out.blocks);
    ASSERT_EQ(out.released.size(), 2u);
    for (const auto &[tid, when] : out.released)
        EXPECT_DOUBLE_EQ(when, 900.0);
}

// ----------------------------------------------------- bus contention ---

TEST(BusContention, SimulatorSlowsUnderLimitedBandwidth)
{
    WorkloadSpec spec = barrierLoopSpec(4, 4, 8000);
    spec.kernel.privateBytes = 32 << 20; // streams to DRAM
    spec.kernel.fracLoad = 0.35;
    const ColumnarTrace trace = synthesizeTrace(spec);
    MulticoreConfig free_bus = baseConfig();
    MulticoreConfig tight_bus = baseConfig();
    tight_bus.memBusCycles = 32; // each transfer occupies the bus
    const double t_free = simulate(trace, free_bus).totalCycles;
    const double t_tight = simulate(trace, tight_bus).totalCycles;
    EXPECT_GT(t_tight, t_free * 1.1);
}

TEST(BusContention, ComputeBoundWorkloadUnaffected)
{
    WorkloadSpec spec = barrierLoopSpec(2, 4, 5000);
    spec.kernel.privateBytes = 8 << 10; // L1-resident
    spec.kernel.reuseFrac = 0.8;
    spec.kernel.fracLoad = 0.1;
    const ColumnarTrace trace = synthesizeTrace(spec);
    MulticoreConfig tight_bus = baseConfig();
    tight_bus.memBusCycles = 32;
    // Only the cold-start misses queue; the loop body is bus-free.
    const double t_free = simulate(trace, baseConfig()).totalCycles;
    const double t_tight = simulate(trace, tight_bus).totalCycles;
    EXPECT_NEAR(t_tight / t_free, 1.0, 0.10);
}

TEST(BusContention, ModelFollowsSimulatorDirection)
{
    // Deep saturation (6x oversubscribed bus): the analytic mirror can
    // only assert the direction — the simulator's transient queue
    // dynamics make it much slower than the steady-state bound.
    WorkloadSpec spec = barrierLoopSpec(4, 4, 8000);
    spec.kernel.privateBytes = 32 << 20;
    spec.kernel.fracLoad = 0.35;
    const ColumnarTrace trace = synthesizeTrace(spec);
    const WorkloadProfile profile = profileWorkload(trace);
    MulticoreConfig tight_bus = baseConfig();
    tight_bus.memBusCycles = 32;
    const double p_free =
        predict(profile, baseConfig()).totalCycles;
    const double p_tight = predict(profile, tight_bus).totalCycles;
    EXPECT_GT(p_tight, p_free * 1.5);
}

TEST(BusContention, ModelBallparkAtModerateLoad)
{
    // Near the service/arrival balance point the M/D/1 mirror should
    // land in the simulator's ballpark.
    WorkloadSpec spec = barrierLoopSpec(4, 4, 8000);
    spec.kernel.privateBytes = 32 << 20;
    spec.kernel.fracLoad = 0.35;
    const ColumnarTrace trace = synthesizeTrace(spec);
    const WorkloadProfile profile = profileWorkload(trace);
    MulticoreConfig bus = baseConfig();
    bus.memBusCycles = 4;
    const double p = predict(profile, bus).totalCycles;
    const double s = simulate(trace, bus).totalCycles;
    EXPECT_NEAR(p / s, 1.0, 0.45);
}

TEST(BusContention, ZeroBusCyclesIsNoOp)
{
    WorkloadSpec spec = barrierLoopSpec(2, 3, 4000);
    const ColumnarTrace trace = synthesizeTrace(spec);
    const WorkloadProfile profile = profileWorkload(trace);
    MulticoreConfig a = baseConfig();
    MulticoreConfig b = baseConfig();
    b.memBusCycles = 0;
    EXPECT_DOUBLE_EQ(predict(profile, a).totalCycles,
                     predict(profile, b).totalCycles);
    EXPECT_DOUBLE_EQ(simulate(trace, a).totalCycles,
                     simulate(trace, b).totalCycles);
}

// ------------------------------------------- simulator idle-thread sanity ---

TEST(SimulatorSanity, MainIdleTimeMatchesWorkerSpan)
{
    // Main creates one worker doing a long run and joins: main's sync
    // idle must be ~the worker's runtime.
    ColumnarTrace trace;
    trace.name = "idle";
    trace.threads.resize(2);
    ThreadTraceBuilder main(trace.threads[0]);
    main.sync(SyncType::ThreadCreate, 1);
    main.sync(SyncType::ThreadJoin, 1);
    ThreadTraceBuilder worker(trace.threads[1]);
    for (int i = 0; i < 20000; ++i)
        worker.op(OpClass::IntAlu, 4 * (i % 64), 1);
    const SimResult res = simulate(trace, baseConfig());
    EXPECT_GT(res.threads[0].syncCycles,
              0.9 * res.threads[1].activeCycles);
}

TEST(SimulatorSanity, PredictedIdleTracksSimulatedIdle)
{
    WorkloadSpec spec = barrierLoopSpec(4, 10, 3000);
    spec.epochJitter = 0.5;
    const ColumnarTrace trace = synthesizeTrace(spec);
    const WorkloadProfile profile = profileWorkload(trace);
    const SimResult sim = simulate(trace, baseConfig());
    const RppmPrediction pred = predict(profile, baseConfig());
    double sim_idle = 0.0, pred_idle = 0.0;
    for (size_t t = 0; t < sim.threads.size(); ++t) {
        sim_idle += sim.threads[t].syncCycles;
        pred_idle += pred.threadIdle[t];
    }
    ASSERT_GT(sim_idle, 0.0);
    EXPECT_NEAR(pred_idle / sim_idle, 1.0, 0.5);
}

} // namespace
} // namespace rppm
