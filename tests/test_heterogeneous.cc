/**
 * @file
 * Tests for the heterogeneous-multicore configuration API: per-core
 * CoreConfig tables, thread-to-core mappings, DVFS scenarios, and the
 * end-to-end guarantee that a heterogeneous config whose cores are all
 * identical reproduces the uniform predictions and simulations
 * bit-identically.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "arch/config.hh"
#include "profile/profiler.hh"
#include "rppm/predictor.hh"
#include "sim/simulator.hh"
#include "study/study.hh"
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
    spec.numEpochs = std::min<uint32_t>(spec.numEpochs, 12);
    spec.queueItems = std::min<uint32_t>(spec.queueItems, 30);
    spec.csPerEpoch = std::min<uint32_t>(spec.csPerEpoch, 12);
    return spec;
}

/** Explicit identity mapping for @p threads threads on @p cores cores —
 *  semantically equal to the default empty mapping, but exercises the
 *  non-identity code paths. */
ThreadMapping
explicitIdentity(uint32_t threads, uint32_t cores)
{
    std::vector<uint32_t> map(threads);
    for (uint32_t t = 0; t < threads; ++t)
        map[t] = t % cores;
    return ThreadMapping(std::move(map));
}

// ------------------------------------------------ uniform equivalence ---

/**
 * The acceptance bar of the redesign: rebuilding the uniform Base
 * machine as an explicitly heterogeneous config (hand-assembled core
 * table, explicit thread mapping) must reproduce the uniform prediction
 * AND simulation bit-identically, on every suite kernel.
 */
TEST(HeterogeneousEquivalence, AllIdenticalCoresMatchUniformEverywhere)
{
    const MulticoreConfig uniform = baseConfig();
    for (const SuiteEntry &entry : fullSuite()) {
        const WorkloadSpec spec = shrink(entry.spec);
        const ColumnarTrace trace = synthesizeTrace(spec);
        const WorkloadProfile prof = profileWorkload(trace);

        MulticoreConfig het = uniform;
        het.cores.assign(uniform.numCores(), uniform.core());
        het.mapping =
            explicitIdentity(spec.numThreads(), uniform.numCores());
        ASSERT_FALSE(het.mapping.isIdentity());
        het.validate();

        const RppmPrediction up = predict(prof, uniform);
        const RppmPrediction hp = predict(prof, het);
        EXPECT_EQ(up.totalCycles, hp.totalCycles) << spec.name;
        EXPECT_EQ(up.totalSeconds, hp.totalSeconds) << spec.name;
        ASSERT_EQ(up.threads.size(), hp.threads.size());
        for (size_t t = 0; t < up.threads.size(); ++t) {
            EXPECT_EQ(up.threads[t].activeCycles,
                      hp.threads[t].activeCycles)
                << spec.name << " t" << t;
            EXPECT_EQ(up.threadIdle[t], hp.threadIdle[t])
                << spec.name << " t" << t;
            EXPECT_EQ(up.threadSeconds[t], hp.threadSeconds[t])
                << spec.name << " t" << t;
        }

        const SimResult us = simulate(trace, uniform);
        const SimResult hs = simulate(trace, het);
        EXPECT_EQ(us.totalCycles, hs.totalCycles) << spec.name;
        EXPECT_EQ(us.totalSeconds, hs.totalSeconds) << spec.name;
        ASSERT_EQ(us.threads.size(), hs.threads.size());
        for (size_t t = 0; t < us.threads.size(); ++t) {
            EXPECT_EQ(us.threads[t].finishTime, hs.threads[t].finishTime)
                << spec.name << " t" << t;
            EXPECT_EQ(us.threads[t].activeCycles,
                      hs.threads[t].activeCycles)
                << spec.name << " t" << t;
        }
    }
}

TEST(HeterogeneousEquivalence, MappingPermutationInvariantOnSymmetricCores)
{
    const WorkloadSpec spec = shrink(parsecSuite()[0].spec); // blackscholes
    const ColumnarTrace trace = synthesizeTrace(spec);
    const WorkloadProfile prof = profileWorkload(trace);

    const MulticoreConfig base = baseConfig();
    MulticoreConfig rotated = base;
    // Rotate the placement: on interchangeable cores this must not
    // change anything, bit for bit.
    std::vector<uint32_t> map(spec.numThreads());
    for (uint32_t t = 0; t < map.size(); ++t)
        map[t] = (t + 1) % base.numCores();
    rotated.mapping = ThreadMapping(std::move(map));
    rotated.validate();

    EXPECT_EQ(predict(prof, base).totalCycles,
              predict(prof, rotated).totalCycles);
    EXPECT_EQ(simulate(trace, base).totalCycles,
              simulate(trace, rotated).totalCycles);
}

// ------------------------------------------------------- validation ---

TEST(HeterogeneousConfig, ValidateRejectsEmptyCoreTable)
{
    MulticoreConfig cfg = baseConfig();
    cfg.cores.clear();
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(HeterogeneousConfig, ValidateRejectsOutOfRangeMapping)
{
    MulticoreConfig cfg = baseConfig();
    cfg.mapping = ThreadMapping({0, 1, 4, 2}); // core 4 does not exist
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg.mapping = ThreadMapping({0, 1, 3, 2});
    EXPECT_NO_THROW(cfg.validate());
}

TEST(HeterogeneousConfig, ValidateChecksEveryCore)
{
    MulticoreConfig cfg = baseConfig();
    cfg.core(2).robSize = 2; // smaller than core 2's dispatch width
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(HeterogeneousConfig, ValidateRejectsMixedLineSizes)
{
    MulticoreConfig cfg = baseConfig();
    cfg.core(1).l1d.lineBytes = 128;
    cfg.core(1).l1i.lineBytes = 128;
    cfg.core(1).l2.lineBytes = 128; // consistent core, mismatched chip
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(HeterogeneousConfig, MappingWrapsBeyondTableLength)
{
    const ThreadMapping mapping({2, 3});
    EXPECT_EQ(mapping.coreOf(0, 4), 2u);
    EXPECT_EQ(mapping.coreOf(1, 4), 3u);
    EXPECT_EQ(mapping.coreOf(2, 4), 2u); // wraps modulo table size
    const ThreadMapping identity;
    EXPECT_EQ(identity.coreOf(5, 4), 1u); // identity wraps modulo cores
}

// ------------------------------------------------- config factories ---

TEST(HeterogeneousConfig, BigLittleShape)
{
    const MulticoreConfig cfg = bigLittleConfig(2, 2);
    EXPECT_NO_THROW(cfg.validate());
    EXPECT_EQ(cfg.numCores(), 4u);
    EXPECT_FALSE(cfg.homogeneous());
    EXPECT_GT(cfg.core(0).dispatchWidth, cfg.core(2).dispatchWidth);
    EXPECT_GT(cfg.core(0).frequencyGHz, cfg.core(3).frequencyGHz);
    // Little cores are a separate, slower clock domain.
    EXPECT_DOUBLE_EQ(cfg.timeScale(0), 1.0);
    EXPECT_DOUBLE_EQ(cfg.timeScale(2), 2.0); // 2.5 GHz / 1.25 GHz
}

TEST(HeterogeneousConfig, DvfsPreservesWallClockDramLatency)
{
    const MulticoreConfig base = baseConfig();
    const MulticoreConfig half =
        dvfsConfig(base, {1.25, 1.25, 1.25, 1.25}, "half");
    EXPECT_NO_THROW(half.validate());
    // 80 ns at 2.5 GHz = 200 cycles; at 1.25 GHz = 100 cycles.
    EXPECT_EQ(half.core(0).memLatency, 100u);
    EXPECT_NEAR(half.cyclesToNs(half.core(0).memLatency, 0),
                base.cyclesToNs(base.core(0).memLatency, 0), 0.5);
}

TEST(HeterogeneousConfig, HeterogeneousConfigFamilyIsValidAndNamed)
{
    std::set<std::string> names;
    for (const MulticoreConfig &cfg : heterogeneousConfigs()) {
        EXPECT_NO_THROW(cfg.validate());
        EXPECT_TRUE(names.insert(cfg.name).second) << cfg.name;
    }
    EXPECT_GE(names.size(), 4u);
}

TEST(HeterogeneousConfig, MappingSweepDeduplicatesSymmetricPlacements)
{
    // All four cores interchangeable: a single design point survives.
    EXPECT_EQ(mappingSweep(baseConfig(), 4).size(), 1u);

    // 2 big + 2 little, 4 threads: the distinct placements are "which
    // threads ride a big core" = C(4,2) = 6.
    const auto sweep = mappingSweep(bigLittleConfig(2, 2), 4);
    EXPECT_EQ(sweep.size(), 6u);
    std::set<std::string> names;
    for (const MulticoreConfig &cfg : sweep) {
        EXPECT_NO_THROW(cfg.validate());
        EXPECT_TRUE(names.insert(cfg.name).second) << cfg.name;
    }
}

// ------------------------------------------- heterogeneous behaviour ---

TEST(HeterogeneousPrediction, LittleCoresAreSlower)
{
    WorkloadSpec spec = shrink(rodiniaSuite()[0].spec); // backprop
    const ColumnarTrace trace = synthesizeTrace(spec);
    const WorkloadProfile prof = profileWorkload(trace);

    const MulticoreConfig bl = bigLittleConfig(2, 2);
    const uint32_t threads = spec.numThreads();

    // Everybody on big cores vs. everybody on little cores.
    MulticoreConfig allBig = bl;
    allBig.name = "all-big";
    allBig.mapping = ThreadMapping(std::vector<uint32_t>(threads, 0));
    MulticoreConfig allLittle = bl;
    allLittle.name = "all-little";
    allLittle.mapping = ThreadMapping(std::vector<uint32_t>(threads, 2));

    const RppmPrediction pb = predict(prof, allBig);
    const RppmPrediction pl = predict(prof, allLittle);
    EXPECT_GT(pl.totalSeconds, pb.totalSeconds * 1.3);

    const SimResult sb = simulate(trace, allBig);
    const SimResult sl = simulate(trace, allLittle);
    EXPECT_GT(sl.totalSeconds, sb.totalSeconds * 1.3);

    // The model and the golden reference agree on the placement
    // ordering, which is what placement DSE relies on.
    EXPECT_EQ(pl.totalSeconds > pb.totalSeconds,
              sl.totalSeconds > sb.totalSeconds);
}

TEST(HeterogeneousPrediction, DvfsSlowdownShowsUpInSeconds)
{
    WorkloadSpec spec = shrink(rodiniaSuite()[4].spec); // hotspot
    const ColumnarTrace trace = synthesizeTrace(spec);
    const WorkloadProfile prof = profileWorkload(trace);

    const MulticoreConfig base = baseConfig();
    const MulticoreConfig half =
        dvfsConfig(base, {1.25, 1.25, 1.25, 1.25}, "half-clock");
    const double baseSec = predict(prof, base).totalSeconds;
    const double halfSec = predict(prof, half).totalSeconds;
    // Compute phases scale ~2x while DRAM time is constant in
    // wall-clock (dvfsConfig preserves it), so the slowdown of this
    // partly memory-bound kernel lands strictly between 1x and 2.1x.
    EXPECT_GT(halfSec, baseSec * 1.1);
    EXPECT_LT(halfSec, baseSec * 2.1);
}

TEST(HeterogeneousStudy, StudyAcceptsHeterogeneousConfigsTransparently)
{
    const WorkloadSpec spec = shrink(parsecSuite()[0].spec, 40);
    Study study;
    study.addWorkload(spec)
        .addConfig(bigLittleConfig(2, 2))
        .addConfig(baseConfig())
        .addEvaluator("rppm")
        .addEvaluator("sim");
    const StudyResult grid = study.run();
    for (const Evaluation &cell : grid.cells()) {
        EXPECT_GT(cell.cycles, 0.0);
        // Heterogeneity-aware backends report per-thread seconds on the
        // mapped cores.
        EXPECT_EQ(cell.threadSeconds.size(), spec.numThreads());
        for (double s : cell.threadSeconds)
            EXPECT_GE(s, 0.0);
    }
    EXPECT_GT(grid.errorVs(spec.name, "bigLITTLE-2+2", "rppm", "sim"),
              -1.0); // defined (non-throwing) on the het point
}

} // namespace
} // namespace rppm
