/**
 * @file
 * Unit tests for src/rppm: the ILP model, branch/memory/MLP components,
 * Eq. 1 evaluation, Algorithm-2 symbolic execution, the top-level
 * predictor, the MAIN/CRIT baselines and the DSE driver.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "common/rng.hh"
#include "profile/profiler.hh"
#include "rppm/baselines.hh"
#include "rppm/dse.hh"
#include "rppm/ilp_model.hh"
#include "rppm/mlp_model.hh"
#include "rppm/predictor.hh"
#include "rppm/sync_model.hh"
#include "rppm/thread_model.hh"
#include "sim/simulator.hh"
#include "trace/trace_builder.hh"
#include "workload/workload.hh"

namespace rppm {
namespace {

LoadLatencyFn
fixedLatency(double lat)
{
    return [lat](const MicroTraceOp &) { return lat; };
}

MicroTrace
makeMicroTrace(size_t n, OpClass cls, uint16_t dep)
{
    MicroTrace mt;
    for (size_t i = 0; i < n; ++i) {
        MicroTraceOp op;
        op.op = cls;
        op.dep1 = dep;
        mt.ops.push_back(op);
    }
    return mt;
}

// ------------------------------------------------------------ ILP model ---

TEST(IlpModel, IndependentOpsReachWidth)
{
    const MicroTrace mt = makeMicroTrace(1000, OpClass::IntAlu, 0);
    const IlpResult r =
        replayMicroTrace(mt, baseConfig().core(), fixedLatency(3.0));
    EXPECT_NEAR(r.ipc, 4.0, 0.3);
}

TEST(IlpModel, SerialChainIpcOne)
{
    const MicroTrace mt = makeMicroTrace(1000, OpClass::IntAlu, 1);
    const IlpResult r =
        replayMicroTrace(mt, baseConfig().core(), fixedLatency(3.0));
    EXPECT_NEAR(r.ipc, 1.0, 0.1);
}

TEST(IlpModel, WiderCoreHigherIpc)
{
    MicroTrace mt;
    // Moderate ILP: dependence distance 3.
    for (int i = 0; i < 1000; ++i) {
        MicroTraceOp op;
        op.op = OpClass::IntAlu;
        op.dep1 = i % 2 ? 3 : 0;
        mt.ops.push_back(op);
    }
    CoreConfig narrow = baseConfig().core();
    narrow.dispatchWidth = 2;
    CoreConfig wide = baseConfig().core();
    wide.dispatchWidth = 6;
    const double ipc_narrow =
        replayMicroTrace(mt, narrow, fixedLatency(3.0)).ipc;
    const double ipc_wide =
        replayMicroTrace(mt, wide, fixedLatency(3.0)).ipc;
    EXPECT_GT(ipc_wide, ipc_narrow);
}

TEST(IlpModel, MemoryLatencyLowersIpc)
{
    MicroTrace mt;
    for (int i = 0; i < 1000; ++i) {
        MicroTraceOp op;
        op.op = i % 4 == 0 ? OpClass::Load : OpClass::IntAlu;
        op.dep1 = 1;
        mt.ops.push_back(op);
    }
    const CoreConfig core = baseConfig().core();
    const double fast = replayMicroTrace(mt, core, fixedLatency(3.0)).ipc;
    const double slow = replayMicroTrace(mt, core, fixedLatency(40.0)).ipc;
    EXPECT_GT(fast, slow * 2.0);
}

TEST(IlpModel, IpcNeverExceedsWidth)
{
    const MicroTrace mt = makeMicroTrace(2000, OpClass::IntAlu, 0);
    for (uint32_t width : {2u, 4u, 6u}) {
        CoreConfig core = baseConfig().core();
        core.dispatchWidth = width;
        const double ipc = replayMicroTrace(mt, core, fixedLatency(3.0)).ipc;
        EXPECT_LE(ipc, static_cast<double>(width) + 1e-9);
    }
}

TEST(IlpModel, BranchResolutionPositiveWithBranches)
{
    MicroTrace mt;
    for (int i = 0; i < 500; ++i) {
        MicroTraceOp op;
        op.op = i % 10 == 0 ? OpClass::Branch : OpClass::IntAlu;
        op.dep1 = 2;
        mt.ops.push_back(op);
    }
    const IlpResult r =
        replayMicroTrace(mt, baseConfig().core(), fixedLatency(3.0));
    EXPECT_GT(r.branchResolution, 0.0);
}

TEST(IlpModel, EmptyTraceSafe)
{
    const MicroTrace mt;
    const IlpResult r =
        replayMicroTrace(mt, baseConfig().core(), fixedLatency(3.0));
    EXPECT_GT(r.ipc, 0.0);
}

TEST(IlpModel, EpochAggregatesMicroTraces)
{
    EpochProfile epoch;
    epoch.numOps = 2000;
    epoch.microTraces.push_back(makeMicroTrace(1000, OpClass::IntAlu, 0));
    epoch.microTraces.push_back(makeMicroTrace(1000, OpClass::IntAlu, 1));
    const IlpResult r =
        epochIlp(epoch, baseConfig().core(), fixedLatency(3.0));
    // Harmonic-style mean of ~4 and ~1: 2000 / (250 + 1000) = 1.6.
    EXPECT_GT(r.ipc, 1.2);
    EXPECT_LT(r.ipc, 2.2);
}

/** A seeded random micro-trace: every op class, dependences reaching
 *  past the trace start, and load bursts that outrun the MSHRs. */
MicroTrace
randomMicroTrace(Rng &rng, size_t n)
{
    MicroTrace mt;
    for (size_t i = 0; i < n; ++i) {
        MicroTraceOp op;
        const bool burst = (i / 16) % 4 == 1;
        op.op = burst && rng.nextBool(0.8) ?
            OpClass::Load :
            static_cast<OpClass>(rng.nextBounded(kNumOpClasses));
        op.dep1 = static_cast<uint16_t>(rng.nextBounded(24));
        op.dep2 = rng.nextBool(0.3) ?
            static_cast<uint16_t>(rng.nextBounded(300)) : 0;
        op.localRd = rng.nextBounded(1u << 20);
        op.globalRd = rng.nextBounded(1u << 22);
        mt.ops.push_back(op);
    }
    return mt;
}

/** Bit-for-bit equality of two replay results. */
void
expectSameBits(const IlpResult &a, const IlpResult &b,
               const std::string &context)
{
    EXPECT_EQ(std::bit_cast<uint64_t>(a.ipc), std::bit_cast<uint64_t>(b.ipc))
        << context << " ipc " << a.ipc << " vs " << b.ipc;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.branchResolution),
              std::bit_cast<uint64_t>(b.branchResolution))
        << context << " branchResolution";
    EXPECT_EQ(std::bit_cast<uint64_t>(a.branchPenalty),
              std::bit_cast<uint64_t>(b.branchPenalty))
        << context << " branchPenalty";
}

TEST(IlpModel, LockstepLanesMatchLoneReplays)
{
    // Five lanes that differ in latency, fetch stall and flush rate, as
    // the Eq.-1 replays do. Shared MSHR, functional-unit or flush state
    // between lanes would make some lane differ from its lone replay.
    const auto latency = [](double dram, double scale) {
        return [dram, scale](const MicroTraceOp &op) {
            if (op.op == OpClass::Store)
                return 2.0;
            double lat = 3.0 + scale * static_cast<double>(op.localRd % 5);
            if (op.globalRd % 3 == 0)
                lat += dram;
            return lat;
        };
    };
    const std::array<LatencyLane, 5> lanes{{
        {latency(0.0, 0.0), 0.0, 0.0},
        {latency(0.0, 4.0), 0.0, 0.37},
        {latency(200.0, 4.0), 0.0, 0.0},
        {latency(200.0, 4.0), 0.13, 0.0},
        {latency(200.0, 4.0), 0.13, 0.37},
    }};

    CoreConfig narrow = baseConfig().core();
    narrow.mshrs = 2;
    narrow.robSize = 24;
    narrow.issueQueueSize = 12;
    narrow.dispatchWidth = 2;
    for (const CoreConfig &core : {baseConfig().core(), narrow}) {
        Rng rng(17 + core.robSize);
        for (int t = 0; t < 12; ++t) {
            const MicroTrace mt =
                randomMicroTrace(rng, 1 + rng.nextBounded(400));
            const std::array<IlpResult, 5> together =
                replayMicroTrace<5>(mt, core, lanes);
            for (size_t k = 0; k < lanes.size(); ++k) {
                const IlpResult alone = replayMicroTrace(
                    mt, core, lanes[k].memLatency, lanes[k].fetchStallPerOp,
                    lanes[k].branchMissRate);
                expectSameBits(together[k], alone,
                               "rob " + std::to_string(core.robSize) +
                                   " trace " + std::to_string(t) +
                                   " lane " + std::to_string(k));
            }
        }
    }
}

// ------------------------------------------------------------ MLP model ---

TEST(MlpModel, NoLoadsGivesOne)
{
    EpochProfile epoch;
    epoch.numOps = 1000;
    EXPECT_DOUBLE_EQ(epochMlp(epoch, baseConfig().core(), 0.5), 1.0);
}

TEST(MlpModel, DenseMissesGiveHighMlp)
{
    EpochProfile epoch;
    epoch.numOps = 1000;
    epoch.numLoads = 250;
    for (int i = 0; i < 250; ++i)
        epoch.loadGap.add(3);
    const double mlp = epochMlp(epoch, baseConfig().core(), 1.0);
    EXPECT_GT(mlp, 4.0);
}

TEST(MlpModel, PointerChasingKillsMlp)
{
    EpochProfile epoch;
    epoch.numOps = 1000;
    epoch.numLoads = 250;
    epoch.loadsDependingOnLoad = 250; // fully serialized
    for (int i = 0; i < 250; ++i)
        epoch.loadGap.add(3);
    EXPECT_DOUBLE_EQ(epochMlp(epoch, baseConfig().core(), 1.0), 1.0);
}

TEST(MlpModel, CappedByMshrs)
{
    EpochProfile epoch;
    epoch.numOps = 10000;
    epoch.numLoads = 5000;
    for (int i = 0; i < 5000; ++i)
        epoch.loadGap.add(1);
    CoreConfig core = baseConfig().core();
    core.mshrs = 4;
    EXPECT_LE(epochMlp(epoch, core, 1.0), 4.0);
}

TEST(MlpModel, GrowsWithRob)
{
    EpochProfile epoch;
    epoch.numOps = 10000;
    epoch.numLoads = 1000;
    for (int i = 0; i < 1000; ++i)
        epoch.loadGap.add(9);
    CoreConfig small = baseConfig().core();
    small.robSize = 32;
    CoreConfig big = baseConfig().core();
    big.robSize = 288;
    EXPECT_GT(epochMlp(epoch, big, 0.5), epochMlp(epoch, small, 0.5));
}

// ------------------------------------------------- Eq. 1 / thread model ---

/** Profile a simple single-thread kernel and return its profile. */
WorkloadProfile
profileSimpleThread(uint64_t ops, double load_frac, uint64_t ws_bytes)
{
    ColumnarTrace trace;
    trace.name = "eq1";
    trace.threads.resize(1);
    ThreadTraceBuilder b(trace.threads[0]);
    uint64_t addr_cursor = 0;
    for (uint64_t i = 0; i < ops; ++i) {
        if (static_cast<double>(i % 100) < load_frac * 100.0) {
            b.load(0x100000 + addr_cursor, 4 * (i % 256));
            addr_cursor = (addr_cursor + 64) % ws_bytes;
        } else {
            b.op(OpClass::IntAlu, 4 * (i % 256), 2);
        }
    }
    // Dense micro-trace sampling so the cold-start burst does not skew
    // the extrapolation.
    ProfilerOptions opts;
    opts.microTraceInterval = 4000;
    return profileWorkload(trace, opts);
}

TEST(ThreadModel, ComponentsNonNegative)
{
    const WorkloadProfile prof = profileSimpleThread(50000, 0.25, 8 << 20);
    const EpochPrediction pred =
        predictEpoch(prof.threads[0].epochs[0], baseConfig());
    for (size_t c = 0; c < kNumCpiComponents; ++c)
        EXPECT_GE(pred.stack.cycles[c], 0.0) << c;
    EXPECT_GT(pred.cycles, 0.0);
}

TEST(ThreadModel, BigWorkingSetCostsDramCycles)
{
    // Streaming a working set far beyond the LLC: DRAM component must
    // dominate a compute-only baseline.
    const WorkloadProfile big = profileSimpleThread(50000, 0.3, 64 << 20);
    const WorkloadProfile small = profileSimpleThread(50000, 0.3, 16 << 10);
    const EpochPrediction pred_big =
        predictEpoch(big.threads[0].epochs[0], baseConfig());
    const EpochPrediction pred_small =
        predictEpoch(small.threads[0].epochs[0], baseConfig());
    EXPECT_GT(pred_big.stack[CpiComponent::MemDram], 0.0);
    EXPECT_GT(pred_big.cycles, pred_small.cycles * 1.5);
    // The small working set still pays cold misses, but far fewer DRAM
    // cycles than the streaming one.
    EXPECT_LT(pred_small.stack[CpiComponent::MemDram],
              0.2 * pred_big.stack[CpiComponent::MemDram]);
}

TEST(ThreadModel, PredictionScalesWithOps)
{
    const WorkloadProfile small = profileSimpleThread(20000, 0.2, 1 << 20);
    const WorkloadProfile big = profileSimpleThread(80000, 0.2, 1 << 20);
    const double c_small =
        predictThread(small.threads[0], baseConfig()).activeCycles;
    const double c_big =
        predictThread(big.threads[0], baseConfig()).activeCycles;
    EXPECT_NEAR(c_big / c_small, 4.0, 0.8);
}

TEST(ThreadModel, EmptyEpochZeroCycles)
{
    EpochProfile epoch;
    const EpochPrediction pred = predictEpoch(epoch, baseConfig());
    EXPECT_DOUBLE_EQ(pred.cycles, 0.0);
}

// ------------------------------------------------- Algorithm 2 (sync) ---

/** Hand-build a profile: threads with given epoch cycle budgets. */
WorkloadProfile
handProfile(const std::vector<std::vector<
                std::tuple<double, SyncType, uint32_t>>> &threads,
            std::unordered_map<uint32_t, uint32_t> barrier_pop)
{
    WorkloadProfile prof;
    prof.name = "hand";
    prof.numThreads = static_cast<uint32_t>(threads.size());
    prof.barrierPopulation = std::move(barrier_pop);
    for (const auto &epochs : threads) {
        ThreadProfile tp;
        for (const auto &[cycles, type, arg] : epochs) {
            EpochProfile ep;
            // Encode the intended duration as numOps with a known IPC=1:
            // we bypass Eq. 1 by building ThreadPredictions directly.
            ep.numOps = static_cast<uint64_t>(cycles);
            ep.endType = type;
            ep.endArg = arg;
            tp.epochs.push_back(std::move(ep));
        }
        prof.threads.push_back(std::move(tp));
    }
    return prof;
}

/** ThreadPredictions where each epoch takes exactly numOps cycles. */
std::vector<ThreadPrediction>
unitPredictions(const WorkloadProfile &prof)
{
    std::vector<ThreadPrediction> preds;
    for (const auto &tp : prof.threads) {
        ThreadPrediction pred;
        for (const auto &ep : tp.epochs) {
            EpochPrediction epred;
            epred.cycles = static_cast<double>(ep.numOps);
            pred.epochs.push_back(epred);
            pred.activeCycles += epred.cycles;
        }
        preds.push_back(std::move(pred));
    }
    return preds;
}

TEST(SyncModel, BarrierWaitsForSlowest)
{
    // Main creates one worker; both do an epoch (100 vs 300), barrier,
    // then another epoch (50 each); main joins worker.
    using E = std::tuple<double, SyncType, uint32_t>;
    const std::vector<std::vector<E>> threads = {
        {E{10, SyncType::ThreadCreate, 1}, E{100, SyncType::BarrierWait, 7},
         E{50, SyncType::ThreadJoin, 1}, E{5, SyncType::None, 0}},
        {E{300, SyncType::BarrierWait, 7}, E{50, SyncType::None, 0}},
    };
    const WorkloadProfile prof = handProfile(threads, {{7, 2}});
    SyncModelOptions opts;
    opts.syncOpCost = 0.0;
    const SyncModelResult res =
        runSyncModel(prof, unitPredictions(prof), opts);
    // Worker: starts at 10, runs 300 => barrier at 310, epoch 50 => 360.
    // Main: 10 + 100 = 110 at barrier, waits until 310, + 50 = 360,
    // join returns immediately, + 5 => 365.
    EXPECT_NEAR(res.threadFinish[1], 360.0, 1e-9);
    EXPECT_NEAR(res.totalCycles, 365.0, 1e-9);
    EXPECT_NEAR(res.threadIdle[0], 200.0, 1e-9);
}

TEST(SyncModel, CriticalSectionsSerialize)
{
    // Two workers each: epoch 10, lock, cs 100, unlock, epoch 0.
    using E = std::tuple<double, SyncType, uint32_t>;
    const std::vector<std::vector<E>> threads = {
        {E{0, SyncType::ThreadCreate, 1}, E{0, SyncType::ThreadCreate, 2},
         E{0, SyncType::ThreadJoin, 1}, E{0, SyncType::ThreadJoin, 2},
         E{0, SyncType::None, 0}},
        {E{10, SyncType::MutexLock, 4}, E{100, SyncType::MutexUnlock, 4},
         E{0, SyncType::None, 0}},
        {E{10, SyncType::MutexLock, 4}, E{100, SyncType::MutexUnlock, 4},
         E{0, SyncType::None, 0}},
    };
    const WorkloadProfile prof = handProfile(threads, {});
    SyncModelOptions opts;
    opts.syncOpCost = 0.0;
    const SyncModelResult res =
        runSyncModel(prof, unitPredictions(prof), opts);
    // One worker finishes at 110; the other waits for the lock until 110
    // and finishes at 210.
    const double finish_max =
        std::max(res.threadFinish[1], res.threadFinish[2]);
    EXPECT_NEAR(finish_max, 210.0, 1e-9);
    EXPECT_NEAR(res.totalCycles, 210.0, 1e-9);
}

TEST(SyncModel, ProducerConsumerThrottlesConsumer)
{
    using E = std::tuple<double, SyncType, uint32_t>;
    // Producer pushes 3 items at t=100, 200, 300; consumer pops with
    // 10-cycle handling.
    const std::vector<std::vector<E>> threads = {
        {E{0, SyncType::ThreadCreate, 1},
         E{100, SyncType::QueuePush, 5}, E{100, SyncType::QueuePush, 5},
         E{100, SyncType::QueuePush, 5},
         E{0, SyncType::ThreadJoin, 1}, E{0, SyncType::None, 0}},
        {E{0, SyncType::QueuePop, 5}, E{10, SyncType::QueuePop, 5},
         E{10, SyncType::QueuePop, 5}, E{10, SyncType::None, 0}},
    };
    const WorkloadProfile prof = handProfile(threads, {});
    SyncModelOptions opts;
    opts.syncOpCost = 0.0;
    const SyncModelResult res =
        runSyncModel(prof, unitPredictions(prof), opts);
    // Consumer pops at 100, 200, 300 (+10 handling each) => finish 310.
    EXPECT_NEAR(res.threadFinish[1], 310.0, 1e-9);
    EXPECT_GT(res.threadIdle[1], 0.0);
}

TEST(SyncModel, SyncOpCostCharged)
{
    using E = std::tuple<double, SyncType, uint32_t>;
    const std::vector<std::vector<E>> threads = {
        {E{0, SyncType::ThreadCreate, 1}, E{0, SyncType::ThreadJoin, 1},
         E{0, SyncType::None, 0}},
        {E{100, SyncType::None, 0}},
    };
    const WorkloadProfile prof = handProfile(threads, {});
    SyncModelOptions opts;
    opts.syncOpCost = 25.0;
    const SyncModelResult res =
        runSyncModel(prof, unitPredictions(prof), opts);
    // Main: create (25) + join (25), waits for worker started at 25
    // finishing at 125 => 125 then zero-length final epoch.
    EXPECT_NEAR(res.totalCycles, 125.0, 1e-9);
}

TEST(SyncModel, ActivityIntervalsProduced)
{
    using E = std::tuple<double, SyncType, uint32_t>;
    const std::vector<std::vector<E>> threads = {
        {E{10, SyncType::ThreadCreate, 1}, E{20, SyncType::ThreadJoin, 1},
         E{5, SyncType::None, 0}},
        {E{500, SyncType::None, 0}},
    };
    const WorkloadProfile prof = handProfile(threads, {});
    SyncModelOptions opts;
    opts.syncOpCost = 0.0;
    const SyncModelResult res =
        runSyncModel(prof, unitPredictions(prof), opts);
    EXPECT_FALSE(res.activity[0].empty());
    EXPECT_FALSE(res.activity[1].empty());
}

// -------------------------------------------------- end-to-end predict ---

TEST(Predictor, PredictsBalancedBarrierWorkload)
{
    // Enough epochs that the cold start (where Eq. 1's additive
    // components overlap heavily in the simulator) is amortized.
    WorkloadSpec spec = barrierLoopSpec(4, 40, 3000);
    const ColumnarTrace trace = synthesizeTrace(spec);
    const WorkloadProfile prof = profileWorkload(trace);
    const MulticoreConfig cfg = baseConfig();
    const SimResult sim = simulate(trace, cfg);
    const RppmPrediction pred = predict(prof, cfg);
    EXPECT_NEAR(pred.totalCycles / sim.totalCycles, 1.0, 0.35);
}

TEST(Predictor, FrequencyOnlyChangesSeconds)
{
    WorkloadSpec spec = barrierLoopSpec(2, 4, 2000);
    const ColumnarTrace trace = synthesizeTrace(spec);
    const WorkloadProfile prof = profileWorkload(trace);
    MulticoreConfig fast = baseConfig();
    fast.eachCore([](CoreConfig &c) { c.frequencyGHz = 5.0; });
    const RppmPrediction base = predict(prof, baseConfig());
    const RppmPrediction faster = predict(prof, fast);
    EXPECT_NEAR(base.totalCycles, faster.totalCycles, 1e-6);
    EXPECT_NEAR(faster.totalSeconds * 2.0, base.totalSeconds, 1e-12);
}

/**
 * A barrier loop whose kernel is L1-resident pure compute: the active-
 * time model is accurate there, so tests exercising the synchronization
 * model are not polluted by cold-start memory effects.
 */
WorkloadSpec
cleanComputeSpec(uint32_t threads, uint32_t epochs, uint64_t ops)
{
    WorkloadSpec spec = barrierLoopSpec(threads, epochs, ops);
    spec.kernel.privateBytes = 8 << 10;
    spec.kernel.hotLines = 16;
    spec.kernel.reuseFrac = 0.8;
    spec.kernel.randomFrac = 0.0;
    spec.kernel.fracLoad = 0.1;
    spec.kernel.fracStore = 0.05;
    spec.kernel.codeFootprint = 512;
    spec.kernel.branchEntropy = 0.005;
    spec.kernel.chainFrac = 0.2;
    return spec;
}

TEST(Predictor, CpiStackComparableToSim)
{
    WorkloadSpec spec = cleanComputeSpec(4, 40, 4000);
    const ColumnarTrace trace = synthesizeTrace(spec);
    const WorkloadProfile prof = profileWorkload(trace);
    const MulticoreConfig cfg = baseConfig();
    const SimResult sim = simulate(trace, cfg);
    const RppmPrediction pred = predict(prof, cfg);
    const CpiStack sim_stack = sim.averageCpiStack();
    const CpiStack pred_stack = pred.averageCpiStack();
    // Total CPI within 35%.
    EXPECT_NEAR(pred_stack.total() / sim_stack.total(), 1.0, 0.35);
}

TEST(Predictor, BottlegraphSharesSumToOne)
{
    WorkloadSpec spec = barrierLoopSpec(4, 5, 2000);
    const ColumnarTrace trace = synthesizeTrace(spec);
    const WorkloadProfile prof = profileWorkload(trace);
    const RppmPrediction pred = predict(prof, baseConfig());
    const Bottlegraph graph = pred.bottlegraph();
    double sum = 0.0;
    for (const auto &box : graph.boxes)
        sum += box.height;
    // Heights sum to the busy-union <= total predicted time.
    EXPECT_GT(sum, 0.5 * pred.totalCycles);
    EXPECT_LE(sum, pred.totalCycles * 1.01);
}

// -------------------------------------------------------- MAIN / CRIT ---

TEST(Baselines, MainUnderestimatesWhenMainIdle)
{
    // Parsec-style pool: main does almost nothing.
    WorkloadSpec spec;
    spec.numWorkers = 4;
    spec.mainWorks = false;
    spec.numEpochs = 2;
    spec.opsPerEpoch = 20000;
    spec.initOps = 500;
    spec.finalOps = 100;
    spec.mainBookkeepingOps = 200;
    spec.barrierFlavor = BarrierFlavor::None;
    const ColumnarTrace trace = synthesizeTrace(spec);
    const WorkloadProfile prof = profileWorkload(trace);
    const MulticoreConfig cfg = baseConfig();
    const SimResult sim = simulate(trace, cfg);
    const double main_pred = predictMain(prof, cfg);
    const double crit_pred = predictCrit(prof, cfg);
    // MAIN misses all the worker time.
    EXPECT_LT(main_pred, 0.5 * sim.totalCycles);
    // CRIT at least captures the busiest worker.
    EXPECT_GT(crit_pred, main_pred * 2.0);
}

TEST(Baselines, CritLowerBoundedByRppmActiveTime)
{
    WorkloadSpec spec = barrierLoopSpec(4, 6, 2000);
    spec.epochJitter = 0.3;
    const ColumnarTrace trace = synthesizeTrace(spec);
    const WorkloadProfile prof = profileWorkload(trace);
    const MulticoreConfig cfg = baseConfig();
    const double crit = predictCrit(prof, cfg);
    const RppmPrediction rppm = predict(prof, cfg);
    // RPPM adds idle time on top of per-thread active time, so its total
    // is >= the critical thread's active-only prediction.
    EXPECT_GE(rppm.totalCycles * 1.0001, crit);
}

// ---------------------------------------------------------------- DSE ---

TEST(Dse, SelectsTrueOptimumWhenPredictionsPerfect)
{
    WorkloadProfile prof;
    prof.name = "dse";
    prof.numThreads = 1;
    prof.threads.resize(1);
    EpochProfile ep;
    ep.numOps = 1000;
    prof.threads[0].epochs.push_back(std::move(ep));

    DseResult res;
    res.workload = "synthetic";
    res.predictedSeconds = {3.0, 2.0, 2.5};
    res.simulatedSeconds = {3.1, 2.1, 2.6};
    EXPECT_EQ(res.predictedBest(), 1u);
    EXPECT_EQ(res.trueBest(), 1u);
    EXPECT_DOUBLE_EQ(res.deficiency(0.0), 0.0);
}

TEST(Dse, DeficiencyWhenMispredicted)
{
    DseResult res;
    res.predictedSeconds = {2.0, 2.4};
    res.simulatedSeconds = {2.2, 2.0}; // true optimum is point 1
    EXPECT_EQ(res.predictedBest(), 0u);
    EXPECT_EQ(res.trueBest(), 1u);
    EXPECT_NEAR(res.deficiency(0.0), 0.1, 1e-9);
    // Relaxing the bound to 20% brings point 1 into the candidate set.
    EXPECT_NEAR(res.deficiency(0.2), 0.0, 1e-9);
    EXPECT_EQ(res.candidates(0.2).size(), 2u);
}

TEST(Dse, CandidatesMonotoneInBound)
{
    DseResult res;
    res.predictedSeconds = {1.0, 1.005, 1.02, 1.04, 1.5};
    res.simulatedSeconds = {1.0, 1.0, 1.0, 1.0, 1.0};
    EXPECT_EQ(res.candidates(0.0).size(), 1u);
    EXPECT_EQ(res.candidates(0.01).size(), 2u);
    EXPECT_EQ(res.candidates(0.03).size(), 3u);
    EXPECT_EQ(res.candidates(0.05).size(), 4u);
}

TEST(Dse, ExploreUsesOneProfileForAllPoints)
{
    const WorkloadSource source(barrierLoopSpec(2, 3, 1500));
    const DseResult res = exploreDesignSpace(source, tableIvConfigs());
    EXPECT_EQ(res.predictedSeconds.size(), 5u);
    for (double s : res.predictedSeconds)
        EXPECT_GT(s, 0.0);
    // Deficiency is finite and small for this trivial workload.
    EXPECT_LT(res.deficiency(0.05), 0.5);
}

TEST(Dse, EmptyDesignSpaceRejected)
{
    EXPECT_THROW(
        exploreDesignSpace(WorkloadSource(barrierLoopSpec(2, 3, 1500)), {}),
        std::invalid_argument);
}

} // namespace
} // namespace rppm
