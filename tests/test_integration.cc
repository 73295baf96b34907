/**
 * @file
 * Integration and property tests across the full pipeline:
 * generate -> simulate -> profile -> predict.
 *
 * These tests pin the paper's headline behaviours: RPPM tracks the
 * simulator within a modest error, outperforms the MAIN/CRIT baselines on
 * workloads where they break, the Table-I error-accumulation effect holds,
 * and one profile predicts a whole design space.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>

#include "common/rng.hh"
#include "common/stats.hh"
#include "profile/profiler.hh"
#include "rppm/baselines.hh"
#include "rppm/predictor.hh"
#include "sim/bottlegraph.hh"
#include "sim/simulator.hh"
#include "workload/suite.hh"
#include "workload/workload.hh"

namespace rppm {
namespace {

/** Shrink a suite spec to test-friendly size while keeping structure. */
WorkloadSpec
shrink(WorkloadSpec spec, uint64_t divisor = 20)
{
    spec.opsPerEpoch = std::max<uint64_t>(500, spec.opsPerEpoch / divisor);
    spec.initOps = std::max<uint64_t>(200, spec.initOps / divisor);
    spec.finalOps = std::max<uint64_t>(100, spec.finalOps / divisor);
    spec.numEpochs = std::min<uint32_t>(spec.numEpochs, 20);
    spec.queueItems = std::min<uint32_t>(spec.queueItems, 40);
    spec.csPerEpoch = std::min<uint32_t>(spec.csPerEpoch, 20);
    return spec;
}

struct PipelineResult
{
    SimResult sim;
    RppmPrediction rppm;
    double mainPred = 0.0;
    double critPred = 0.0;
};

PipelineResult
runPipeline(const WorkloadSpec &spec, const MulticoreConfig &cfg)
{
    const ColumnarTrace trace = synthesizeTrace(spec);
    const WorkloadProfile prof = profileWorkload(trace);
    PipelineResult result;
    result.sim = simulate(trace, cfg);
    result.rppm = predict(prof, cfg);
    result.mainPred = predictMain(prof, cfg);
    result.critPred = predictCrit(prof, cfg);
    return result;
}

TEST(Integration, BalancedBarrierWorkloadAccuracy)
{
    const PipelineResult r =
        runPipeline(shrink(rodiniaSuite()[4].spec), baseConfig()); // hotspot
    const double err =
        absRelativeError(r.rppm.totalCycles, r.sim.totalCycles);
    EXPECT_LT(err, 0.30) << "RPPM error too large";
}

TEST(Integration, RppmBeatsMainOnPoolWorkloads)
{
    // Blackscholes-style: main idle, 4 workers. MAIN must grossly
    // underestimate; RPPM must not.
    const auto entry = findBenchmark("Blackscholes");
    ASSERT_TRUE(entry.has_value());
    const PipelineResult r = runPipeline(shrink(entry->spec), baseConfig());
    const double err_rppm =
        absRelativeError(r.rppm.totalCycles, r.sim.totalCycles);
    const double err_main =
        absRelativeError(r.mainPred, r.sim.totalCycles);
    EXPECT_GT(err_main, 0.5); // MAIN misses nearly all the work
    EXPECT_LT(err_rppm, err_main);
}

TEST(Integration, RppmBeatsCritOnImbalancedBarriers)
{
    // Strong per-epoch jitter: the per-epoch critical thread changes, so
    // CRIT (one critical thread for the whole run) underestimates. The
    // kernel is L1-resident compute so active-time model bias does not
    // mask the synchronization effect under test.
    WorkloadSpec spec = barrierLoopSpec(4, 30, 2500);
    spec.epochJitter = 1.4;
    spec.kernel.privateBytes = 8 << 10;
    spec.kernel.hotLines = 16;
    spec.kernel.reuseFrac = 0.8;
    spec.kernel.randomFrac = 0.0;
    spec.kernel.fracLoad = 0.1;
    spec.kernel.fracStore = 0.05;
    spec.kernel.codeFootprint = 512;
    spec.kernel.branchEntropy = 0.005;
    spec.kernel.chainFrac = 0.2;
    const PipelineResult r = runPipeline(spec, baseConfig());
    const double err_rppm =
        absRelativeError(r.rppm.totalCycles, r.sim.totalCycles);
    const double err_crit =
        absRelativeError(r.critPred, r.sim.totalCycles);
    EXPECT_LT(err_rppm, err_crit);
}

TEST(Integration, ProfileOncePredictMany)
{
    // One profile drives predictions across the full Table-IV space and
    // they remain sane versus per-config simulation.
    WorkloadSpec spec = shrink(rodiniaSuite()[0].spec, 40); // backprop
    const ColumnarTrace trace = synthesizeTrace(spec);
    const WorkloadProfile prof = profileWorkload(trace);
    for (const MulticoreConfig &cfg : tableIvConfigs()) {
        const SimResult sim = simulate(trace, cfg);
        const RppmPrediction pred = predict(prof, cfg);
        const double err =
            absRelativeError(pred.totalCycles, sim.totalCycles);
        EXPECT_LT(err, 0.5) << cfg.name;
    }
}

TEST(Integration, PredictionTracksArchitectureTrend)
{
    // Compute-bound kernel: per-cycle behaviour improves with width, so
    // predicted and simulated cycle counts must rank the extreme designs
    // the same way.
    WorkloadSpec spec = barrierLoopSpec(4, 6, 5000);
    spec.kernel.chainFrac = 0.05;
    spec.kernel.depMean = 40.0;
    const ColumnarTrace trace = synthesizeTrace(spec);
    const WorkloadProfile prof = profileWorkload(trace);
    const auto configs = tableIvConfigs();
    const SimResult sim_small = simulate(trace, configs.front());
    const SimResult sim_big = simulate(trace, configs.back());
    const RppmPrediction pred_small = predict(prof, configs.front());
    const RppmPrediction pred_big = predict(prof, configs.back());
    // High-ILP code prefers the wide core in cycles.
    EXPECT_EQ(sim_big.totalCycles < sim_small.totalCycles,
              pred_big.totalCycles < pred_small.totalCycles);
}

TEST(Integration, BottlegraphShapeMatchesSim)
{
    // Freqmine-style: main is the bottleneck. RPPM's bottlegraph should
    // agree with the simulated one about which thread dominates.
    const auto entry = findBenchmark("Freqmine");
    ASSERT_TRUE(entry.has_value());
    const WorkloadSpec spec = shrink(entry->spec);
    const ColumnarTrace trace = synthesizeTrace(spec);
    const WorkloadProfile prof = profileWorkload(trace);
    const SimResult sim = simulate(trace, baseConfig());
    const RppmPrediction pred = predict(prof, baseConfig());
    const Bottlegraph sim_graph = buildBottlegraph(sim);
    const Bottlegraph pred_graph = pred.bottlegraph();
    EXPECT_GT(bottlegraphSimilarity(sim_graph, pred_graph), 0.8);
    // Main (thread 0) is the tallest box in both.
    double sim_max = 0.0, pred_max = 0.0;
    uint32_t sim_argmax = 0, pred_argmax = 0;
    for (uint32_t t = 0; t < trace.numThreads(); ++t) {
        if (sim_graph.normalizedHeight(t) > sim_max) {
            sim_max = sim_graph.normalizedHeight(t);
            sim_argmax = t;
        }
        if (pred_graph.normalizedHeight(t) > pred_max) {
            pred_max = pred_graph.normalizedHeight(t);
            pred_argmax = t;
        }
    }
    EXPECT_EQ(sim_argmax, pred_argmax);
}

TEST(Integration, CoherenceHeavyWorkloadStillPredicted)
{
    // Canneal-style shared-write traffic exercises invalidation paths in
    // both simulator and profiler.
    const auto entry = findBenchmark("Canneal");
    ASSERT_TRUE(entry.has_value());
    const PipelineResult r = runPipeline(shrink(entry->spec), baseConfig());
    EXPECT_GT(r.sim.mem[1].coherenceMisses, 0u);
    const double err =
        absRelativeError(r.rppm.totalCycles, r.sim.totalCycles);
    EXPECT_LT(err, 0.5);
}

TEST(Integration, CondVarBarrierModeledAsBarrier)
{
    // Facesim-style condvar barriers: RPPM must handle them without
    // deadlock and with sane accuracy.
    const auto entry = findBenchmark("Facesim");
    ASSERT_TRUE(entry.has_value());
    const PipelineResult r = runPipeline(shrink(entry->spec), baseConfig());
    const double err =
        absRelativeError(r.rppm.totalCycles, r.sim.totalCycles);
    EXPECT_LT(err, 0.4);
}

// ------------------------------------------- full-suite accuracy sweep ---

/**
 * Property: on every benchmark of the suite (shrunk for test speed) and
 * on both extreme Table-IV designs, RPPM stays within a generous error
 * bound and always beats at least one naive baseline. This is the
 * regression net for the Fig. 4 result.
 */
class SuiteAccuracyTest : public ::testing::TestWithParam<int>
{
};

TEST_P(SuiteAccuracyTest, RppmWithinBoundsEverywhere)
{
    const auto suite = fullSuite();
    const SuiteEntry entry = suite[static_cast<size_t>(GetParam())];
    const WorkloadSpec spec = shrink(entry.spec, 30);
    const ColumnarTrace trace = synthesizeTrace(spec);
    const WorkloadProfile profile = profileWorkload(trace);

    const auto configs = tableIvConfigs();
    for (const MulticoreConfig *cfg : {&configs.front(), &configs.back()}) {
        const SimResult sim = simulate(trace, *cfg);
        const RppmPrediction pred = predict(profile, *cfg);
        const double err =
            absRelativeError(pred.totalCycles, sim.totalCycles);
        // Generous bound: shrunk workloads are cold-start-heavy, the
        // worst case for the additive model (paper max is 23% at full
        // scale).
        EXPECT_LT(err, 0.40) << entry.spec.name << " on " << cfg->name;
    }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, SuiteAccuracyTest,
                         ::testing::Range(0, 26));

// --------------------------------------------- Table I (error build-up) ---

/**
 * Monte-Carlo reproduction of the paper's Table I: per-thread inter-
 * barrier times are predicted with a uniform random error in [-b, +b];
 * the accumulated overall error approaches b*(n-1)/(n+1) for n threads.
 */
double
accumulatedError(uint32_t threads, double bound, uint32_t barriers,
                 uint64_t seed)
{
    Rng rng(seed);
    double actual_total = 0.0, predicted_total = 0.0;
    for (uint32_t b = 0; b < barriers; ++b) {
        double predicted_max = 0.0;
        for (uint32_t t = 0; t < threads; ++t) {
            const double err = rng.nextUniform(-bound, bound);
            predicted_max = std::max(predicted_max, 1.0 + err);
        }
        actual_total += 1.0;
        predicted_total += predicted_max;
    }
    return predicted_total / actual_total - 1.0;
}

class TableOneTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, double>>
{
};

TEST_P(TableOneTest, MatchesClosedForm)
{
    const auto [threads, bound] = GetParam();
    const double measured =
        accumulatedError(threads, bound, 20000, threads * 31 + 7);
    const double expected = threads == 1 ?
        0.0 : bound * (threads - 1) / (threads + 1);
    EXPECT_NEAR(measured, expected, 0.004)
        << threads << " threads, bound " << bound;
}

INSTANTIATE_TEST_SUITE_P(
    ThreadErrorSweep, TableOneTest,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u, 16u),
                       ::testing::Values(0.01, 0.05, 0.10)));

TEST(TableOne, ErrorGrowsWithThreadCount)
{
    const double e2 = accumulatedError(2, 0.05, 20000, 11);
    const double e8 = accumulatedError(8, 0.05, 20000, 12);
    const double e16 = accumulatedError(16, 0.05, 20000, 13);
    EXPECT_LT(e2, e8);
    EXPECT_LT(e8, e16);
}

// ----------------------------------------------------- speed sanity ---

TEST(Integration, PredictionMuchFasterThanSimulation)
{
    // The "R" in RPPM: model evaluation must beat simulation wall-clock.
    WorkloadSpec spec = shrink(rodiniaSuite()[5].spec, 10); // kmeans
    const ColumnarTrace trace = synthesizeTrace(spec);
    const WorkloadProfile prof = profileWorkload(trace);

    const auto t0 = std::chrono::steady_clock::now();
    const SimResult sim = simulate(trace, baseConfig());
    const auto t1 = std::chrono::steady_clock::now();
    const RppmPrediction pred = predict(prof, baseConfig());
    const auto t2 = std::chrono::steady_clock::now();

    const double sim_us = std::chrono::duration<double, std::micro>(
        t1 - t0).count();
    const double pred_us = std::chrono::duration<double, std::micro>(
        t2 - t1).count();
    EXPECT_GT(sim.totalCycles, 0.0);
    EXPECT_GT(pred.totalCycles, 0.0);
    EXPECT_LT(pred_us, sim_us) << "prediction slower than simulation";
}

} // namespace
} // namespace rppm
