/**
 * @file
 * Unit tests for src/rppm/memory_model and the interplay between
 * profiled reuse distances and predicted cache behaviour, plus CPI-stack
 * consistency properties of predictEpoch.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "profile/profiler.hh"
#include "rppm/memory_model.hh"
#include "rppm/thread_model.hh"
#include "trace/trace_builder.hh"
#include "workload/suite.hh"
#include "workload/workload.hh"

namespace rppm {
namespace {

/** An epoch whose data accesses all have reuse distance @p rd. */
EpochProfile
uniformRdEpoch(uint64_t rd, uint64_t accesses = 10000)
{
    EpochProfile epoch;
    epoch.numOps = accesses * 4;
    epoch.numLoads = accesses;
    epoch.localRd.add(rd, accesses);
    epoch.globalRd.add(rd, accesses);
    epoch.loadLocalRd.add(rd, accesses);
    epoch.loadGlobalRd.add(rd, accesses);
    epoch.instrRd.add(2, epoch.numOps);
    return epoch;
}

TEST(MemoryModel, ShortReuseHitsL1)
{
    const EpochProfile epoch = uniformRdEpoch(8);
    EpochMemoryModel mem(epoch, baseConfig());
    EXPECT_LT(mem.l1dMissRate(), 0.05);
    EXPECT_LT(mem.llcLoadMissRate(), 0.05);
}

TEST(MemoryModel, MediumReuseMissesL1HitsL2)
{
    // L1D: 512 lines; L2: 4096 lines. Reuse distance 2000 lands between.
    const EpochProfile epoch = uniformRdEpoch(2000);
    EpochMemoryModel mem(epoch, baseConfig());
    EXPECT_GT(mem.l1dMissRate(), 0.9);
    EXPECT_LT(mem.l2MissRate(), 0.1);
}

TEST(MemoryModel, HugeReuseMissesEverything)
{
    // LLC: 131072 lines. Reuse distance 10M misses all levels.
    const EpochProfile epoch = uniformRdEpoch(10000000);
    EpochMemoryModel mem(epoch, baseConfig());
    EXPECT_GT(mem.l1dMissRate(), 0.9);
    EXPECT_GT(mem.l2MissRate(), 0.9);
    EXPECT_GT(mem.llcMissRate(), 0.9);
    EXPECT_NEAR(mem.llcLoadMisses(),
                static_cast<double>(epoch.numLoads), 1000.0);
}

TEST(MemoryModel, ColdAccessesAlwaysMiss)
{
    EpochProfile epoch;
    epoch.numOps = 1000;
    epoch.numLoads = 250;
    epoch.localRd.add(LogHistogram::kInfinity, 250);
    epoch.globalRd.add(LogHistogram::kInfinity, 250);
    epoch.loadLocalRd.add(LogHistogram::kInfinity, 250);
    epoch.loadGlobalRd.add(LogHistogram::kInfinity, 250);
    EpochMemoryModel mem(epoch, baseConfig());
    EXPECT_DOUBLE_EQ(mem.l1dMissRate(), 1.0);
    EXPECT_DOUBLE_EQ(mem.llcLoadMissRate(), 1.0);
}

TEST(MemoryModel, ExpectedLatencyFollowsReuseDistance)
{
    const EpochProfile epoch = uniformRdEpoch(2000);
    const MulticoreConfig cfg = baseConfig();
    EpochMemoryModel mem(epoch, cfg);

    MicroTraceOp hot;
    hot.op = OpClass::Load;
    hot.localRd = 4;
    hot.globalRd = 4;
    MicroTraceOp l2_load;
    l2_load.op = OpClass::Load;
    l2_load.localRd = 2000;
    l2_load.globalRd = 2000;
    MicroTraceOp cold;
    cold.op = OpClass::Load;
    cold.localRd = LogHistogram::kInfinity;
    cold.globalRd = LogHistogram::kInfinity;

    EXPECT_DOUBLE_EQ(mem.expectedLatency(hot),
                     static_cast<double>(cfg.core().l1d.latency));
    EXPECT_DOUBLE_EQ(mem.expectedLatency(l2_load),
                     static_cast<double>(cfg.core().l1d.latency + cfg.core().l2.latency));
    // Hit-path latency is capped at the LLC...
    EXPECT_DOUBLE_EQ(
        mem.expectedLatency(cold),
        static_cast<double>(cfg.core().l1d.latency + cfg.core().l2.latency +
                            cfg.llc.latency));
    // ...and the full latency adds DRAM.
    EXPECT_DOUBLE_EQ(
        mem.expectedLatencyFull(cold),
        static_cast<double>(cfg.core().l1d.latency + cfg.core().l2.latency +
                            cfg.llc.latency + cfg.core().memLatency));
}

TEST(MemoryModel, StoresUseStoreLatency)
{
    const EpochProfile epoch = uniformRdEpoch(2000);
    const MulticoreConfig cfg = baseConfig();
    EpochMemoryModel mem(epoch, cfg);
    MicroTraceOp store;
    store.op = OpClass::Store;
    store.localRd = LogHistogram::kInfinity;
    store.globalRd = LogHistogram::kInfinity;
    const double lat = static_cast<double>(
        cfg.core().fus[static_cast<size_t>(OpClass::Store)].latency);
    EXPECT_DOUBLE_EQ(mem.expectedLatency(store), lat);
    EXPECT_DOUBLE_EQ(mem.expectedLatencyFull(store), lat);
}

TEST(MemoryModel, SharedDataHitsLlcViaGlobalRd)
{
    // Per-thread reuse is broken (infinite) but another thread touched
    // the line recently (small global RD): the access hits the shared
    // LLC — positive interference.
    EpochProfile epoch;
    epoch.numOps = 4000;
    epoch.numLoads = 1000;
    epoch.localRd.add(LogHistogram::kInfinity, 1000);
    epoch.globalRd.add(50, 1000);
    epoch.loadLocalRd.add(LogHistogram::kInfinity, 1000);
    epoch.loadGlobalRd.add(50, 1000);
    EpochMemoryModel mem(epoch, baseConfig());
    EXPECT_DOUBLE_EQ(mem.l1dMissRate(), 1.0); // misses private levels
    EXPECT_LT(mem.llcLoadMissRate(), 0.05);   // but hits the LLC
}

TEST(MemoryModel, AblationLocalRdChangesLlcPrediction)
{
    EpochProfile epoch;
    epoch.numOps = 4000;
    epoch.numLoads = 1000;
    epoch.localRd.add(LogHistogram::kInfinity, 1000);
    epoch.globalRd.add(50, 1000);
    epoch.loadLocalRd.add(LogHistogram::kInfinity, 1000);
    epoch.loadGlobalRd.add(50, 1000);
    EpochMemoryModel with_global(epoch, baseConfig(), true);
    EpochMemoryModel without(epoch, baseConfig(), false);
    EXPECT_LT(with_global.llcLoadMissRate(), 0.05);
    EXPECT_DOUBLE_EQ(without.llcLoadMissRate(), 1.0);
}

TEST(MemoryModel, IcachePerFetchZeroForTinyCode)
{
    EpochProfile epoch;
    epoch.numOps = 10000;
    // 16 distinct instruction lines cycled: trivially L1I resident.
    epoch.instrRd.add(15, 10000);
    EpochMemoryModel mem(epoch, baseConfig());
    EXPECT_LT(mem.icachePerFetch(), 0.05);
}

TEST(MemoryModel, IcachePerFetchGrowsWithCodeFootprint)
{
    EpochProfile small, big;
    small.numOps = big.numOps = 10000;
    small.instrRd.add(100, 10000);   // 100-line loop: fits L1I
    big.instrRd.add(3000, 10000);    // 3000 lines: misses 512-line L1I
    EpochMemoryModel small_mem(small, baseConfig());
    EpochMemoryModel big_mem(big, baseConfig());
    EXPECT_GT(big_mem.icachePerFetch(),
              small_mem.icachePerFetch() + 1.0);
}

TEST(MemoryModel, BiggerLlcLowersMissRate)
{
    const EpochProfile epoch = uniformRdEpoch(200000);
    MulticoreConfig small_cfg = baseConfig();
    small_cfg.llc.sizeBytes = 2 * 1024 * 1024;
    MulticoreConfig big_cfg = baseConfig();
    big_cfg.llc.sizeBytes = 32 * 1024 * 1024;
    EpochMemoryModel small_mem(epoch, small_cfg);
    EpochMemoryModel big_mem(epoch, big_cfg);
    EXPECT_GT(small_mem.llcLoadMissRate(),
              big_mem.llcLoadMissRate());
}

// --------------------------------------------- predictEpoch properties ---

TEST(PredictEpoch, StackTotalEqualsCycles)
{
    WorkloadSpec spec = barrierLoopSpec(2, 3, 5000);
    spec.kernel.sharedFrac = 0.2;
    const ColumnarTrace trace = synthesizeTrace(spec);
    const WorkloadProfile prof = profileWorkload(trace);
    for (const auto &thread : prof.threads) {
        for (const auto &epoch : thread.epochs) {
            const EpochPrediction pred =
                predictEpoch(epoch, baseConfig());
            EXPECT_NEAR(pred.stack.total(), pred.cycles, 1e-6);
        }
    }
}

TEST(PredictEpoch, MlpReportedInBounds)
{
    WorkloadSpec spec = barrierLoopSpec(2, 2, 8000);
    spec.kernel.privateBytes = 32 << 20; // streaming: DRAM misses
    const ColumnarTrace trace = synthesizeTrace(spec);
    const WorkloadProfile prof = profileWorkload(trace);
    const MulticoreConfig cfg = baseConfig();
    for (const auto &epoch : prof.threads[1].epochs) {
        if (epoch.numOps == 0)
            continue;
        const EpochPrediction pred = predictEpoch(epoch, cfg);
        EXPECT_GE(pred.mlp, 1.0);
        // The implied overlap cannot exceed what the window can expose.
        EXPECT_LE(pred.mlp, static_cast<double>(cfg.core().robSize));
    }
}

/** Property sweep: every suite benchmark's epochs produce finite,
 *  non-negative predictions on every Table-IV configuration. */
class EpochSanityTest : public ::testing::TestWithParam<int>
{
};

TEST_P(EpochSanityTest, AllEpochsFiniteOnAllConfigs)
{
    const auto suite = fullSuite();
    WorkloadSpec spec = suite[static_cast<size_t>(GetParam())].spec;
    spec.opsPerEpoch = std::max<uint64_t>(300, spec.opsPerEpoch / 60);
    spec.numEpochs = std::min<uint32_t>(spec.numEpochs, 6);
    spec.queueItems = std::min<uint32_t>(spec.queueItems, 12);
    spec.initOps /= 20;
    const ColumnarTrace trace = synthesizeTrace(spec);
    const WorkloadProfile prof = profileWorkload(trace);
    for (const MulticoreConfig &cfg : tableIvConfigs()) {
        for (const auto &thread : prof.threads) {
            for (const auto &epoch : thread.epochs) {
                const EpochPrediction pred = predictEpoch(epoch, cfg);
                EXPECT_TRUE(std::isfinite(pred.cycles));
                EXPECT_GE(pred.cycles, 0.0);
                for (double c : pred.stack.cycles) {
                    EXPECT_TRUE(std::isfinite(c));
                    EXPECT_GE(c, 0.0);
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, EpochSanityTest,
                         ::testing::Range(0, 26));

} // namespace
} // namespace rppm
