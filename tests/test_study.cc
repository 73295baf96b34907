/**
 * @file
 * Tests for the Study evaluation facade: evaluator backends and the
 * registry, grid evaluation versus direct free-function calls, worker-
 * pool determinism, the parallel executor, result queries/exports and
 * the evaluator-backed design-space exploration.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/parallel.hh"
#include "profile/profiler.hh"
#include "rppm/baselines.hh"
#include "rppm/dse.hh"
#include "rppm/predictor.hh"
#include "sim/simulator.hh"
#include "study/study.hh"
#include "workload/suite.hh"
#include "workload/workload.hh"

namespace rppm {
namespace {

WorkloadSpec
smallSpec(const char *name, uint64_t seed)
{
    WorkloadSpec spec = barrierLoopSpec(3, 4, 2000);
    spec.name = name;
    spec.seed = seed;
    spec.csPerEpoch = 1;
    spec.kernel.sharedFrac = 0.2;
    spec.kernel.branchEntropy = 0.1;
    return spec;
}

std::vector<MulticoreConfig>
threeConfigs()
{
    std::vector<MulticoreConfig> configs;
    MulticoreConfig base = baseConfig();
    configs.push_back(base);

    MulticoreConfig narrow = base;
    narrow.name = "narrow";
    narrow.eachCore([](CoreConfig &c) {
        c.dispatchWidth = 2;
        c.robSize = 64;
        c.issueQueueSize = 32;
    });
    configs.push_back(narrow);

    MulticoreConfig smallLlc = base;
    smallLlc.name = "small-llc";
    smallLlc.llc.sizeBytes = 1024 * 1024;
    configs.push_back(smallLlc);
    return configs;
}

// ------------------------------------------------------------ executor ---

TEST(ParallelExecutor, RunsEveryIndexOnce)
{
    for (unsigned jobs : {1u, 4u}) {
        ParallelExecutor executor(jobs);
        std::vector<std::atomic<int>> hits(100);
        executor.forEach(100, [&](size_t i) { ++hits[i]; });
        for (size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1) << i;
    }
}

TEST(ParallelExecutor, ZeroJobsResolvesToHardware)
{
    EXPECT_GE(ParallelExecutor(0).jobs(), 1u);
    EXPECT_EQ(ParallelExecutor(7).jobs(), 7u);
}

TEST(ParallelExecutor, PropagatesFirstException)
{
    ParallelExecutor executor(4);
    EXPECT_THROW(
        executor.forEach(50,
                         [](size_t i) {
                             if (i == 13)
                                 throw std::runtime_error("boom");
                         }),
        std::runtime_error);
}

// ------------------------------------------------------------ backends ---

TEST(Evaluators, RegistryHasBuiltins)
{
    const std::vector<std::string> names = registeredEvaluators();
    for (const char *expected : {"crit", "main", "rppm", "sim"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), expected),
                  names.end())
            << expected;
    }
    EXPECT_TRUE(makeEvaluator("sim")->isOracle());
    EXPECT_FALSE(makeEvaluator("rppm")->isOracle());
    EXPECT_THROW(makeEvaluator("no-such-backend"), std::invalid_argument);
}

TEST(Evaluators, CustomRegistration)
{
    registerEvaluator("test-crit-alias", [] {
        return std::make_unique<CritEvaluator>("test-crit-alias");
    });
    const auto evaluator = makeEvaluator("test-crit-alias");
    EXPECT_EQ(evaluator->label(), "test-crit-alias");
}

TEST(Evaluators, BackendsMatchFreeFunctions)
{
    const WorkloadSpec spec = smallSpec("backend-check", 7);
    const MulticoreConfig cfg = baseConfig();
    const ColumnarTrace trace = synthesizeTrace(spec);
    const WorkloadProfile profile = profileWorkload(trace);

    Study study;
    study.addWorkload(spec).addConfig(cfg);
    study.addEvaluator("rppm")
        .addEvaluator("sim")
        .addEvaluator("main")
        .addEvaluator("crit");
    const StudyResult grid = study.run();

    EXPECT_DOUBLE_EQ(grid.at(spec.name, cfg.name, "rppm").cycles,
                     predict(profile, cfg).totalCycles);
    EXPECT_DOUBLE_EQ(grid.at(spec.name, cfg.name, "sim").cycles,
                     simulate(trace, cfg).totalCycles);
    EXPECT_DOUBLE_EQ(grid.at(spec.name, cfg.name, "main").cycles,
                     predictMain(profile, cfg));
    EXPECT_DOUBLE_EQ(grid.at(spec.name, cfg.name, "crit").cycles,
                     predictCrit(profile, cfg));
}

// ---------------------------------------------------------------- grid ---

TEST(Study, GridEqualsSerialPerPairPredict)
{
    // Satellite requirement: 2 workloads x 3 configs through the grid
    // == serial per-pair predict(), exactly.
    const std::vector<WorkloadSpec> specs = {smallSpec("grid-a", 11),
                                             smallSpec("grid-b", 22)};
    const std::vector<MulticoreConfig> configs = threeConfigs();

    Study study;
    for (const WorkloadSpec &spec : specs)
        study.addWorkload(spec);
    study.addConfigs(configs).addEvaluator("rppm");
    const StudyResult grid = study.run();

    for (const WorkloadSpec &spec : specs) {
        const WorkloadProfile profile =
            profileWorkload(synthesizeTrace(spec));
        for (const MulticoreConfig &cfg : configs) {
            const RppmPrediction direct = predict(profile, cfg);
            const Evaluation &cell = grid.at(spec.name, cfg.name, "rppm");
            EXPECT_DOUBLE_EQ(cell.cycles, direct.totalCycles)
                << spec.name << " on " << cfg.name;
            EXPECT_DOUBLE_EQ(cell.seconds, direct.totalSeconds);
        }
    }
}

TEST(Study, ParallelGridIsDeterministic)
{
    // Satellite requirement: the worker pool at >= 4 threads returns a
    // registry identical to serial execution.
    const std::vector<WorkloadSpec> specs = {smallSpec("det-a", 31),
                                             smallSpec("det-b", 32)};
    const std::vector<MulticoreConfig> configs = threeConfigs();

    auto runWith = [&](unsigned jobs) {
        Study study;
        for (const WorkloadSpec &spec : specs)
            study.addWorkload(spec);
        study.addConfigs(configs)
            .addEvaluator("rppm")
            .addEvaluator("main")
            .addEvaluator("crit")
            .jobs(jobs);
        return study.run();
    };

    const StudyResult serial = runWith(1);
    const StudyResult parallel = runWith(4);

    ASSERT_EQ(serial.cells().size(), parallel.cells().size());
    ASSERT_EQ(serial.cells().size(),
              specs.size() * configs.size() * 3);
    for (size_t i = 0; i < serial.cells().size(); ++i) {
        const Evaluation &a = serial.cells()[i];
        const Evaluation &b = parallel.cells()[i];
        // Same slot: ordering is deterministic, not just the multiset.
        EXPECT_EQ(a.workload, b.workload) << i;
        EXPECT_EQ(a.config, b.config) << i;
        EXPECT_EQ(a.evaluator, b.evaluator) << i;
        EXPECT_DOUBLE_EQ(a.cycles, b.cycles) << i;
        EXPECT_DOUBLE_EQ(a.seconds, b.seconds) << i;
    }
    // CSV export is byte-identical, too.
    EXPECT_TRUE(serial.csv() == parallel.csv());
}

TEST(Study, ValidatesItsInputs)
{
    EXPECT_THROW(Study().run(), std::invalid_argument); // no workloads

    Study noConfigs;
    noConfigs.addWorkload(smallSpec("w", 1)).addEvaluator("rppm");
    EXPECT_THROW(noConfigs.run(), std::invalid_argument);

    Study noEvaluators;
    noEvaluators.addWorkload(smallSpec("w", 1)).addConfig(baseConfig());
    EXPECT_THROW(noEvaluators.run(), std::invalid_argument);

    // Duplicate axis names throw at insertion time: letting them in
    // would silently shadow the earlier entry in name-keyed lookups.
    Study duplicate;
    duplicate.addWorkload(smallSpec("w", 1));
    EXPECT_THROW(duplicate.addWorkload(smallSpec("w", 2)),
                 std::invalid_argument);

    Study dupConfig;
    dupConfig.addConfig(baseConfig());
    EXPECT_THROW(dupConfig.addConfig(baseConfig()), std::invalid_argument);
    MulticoreConfig renamed = baseConfig();
    renamed.name = "Base-2";
    EXPECT_NO_THROW(dupConfig.addConfig(renamed));

    Study dupEvaluator;
    dupEvaluator.addEvaluator("rppm");
    EXPECT_THROW(dupEvaluator.addEvaluator("rppm"), std::invalid_argument);
    EXPECT_NO_THROW(dupEvaluator.addEvaluator("sim"));
}

TEST(Study, ErrorVsRejectsZeroCycleOracle)
{
    // Hand-built registry: a 1x1x2 grid whose oracle cell is zero.
    Evaluation model;
    model.workload = "w";
    model.config = "c";
    model.evaluator = "rppm";
    model.cycles = 100.0;
    Evaluation oracle = model;
    oracle.evaluator = "sim";
    oracle.cycles = 0.0;
    const StudyResult grid({"w"}, {"c"}, {"rppm", "sim"},
                           {model, oracle});
    EXPECT_THROW(grid.errorVs("w", "c", "rppm", "sim"), std::domain_error);
    // A non-zero oracle still works.
    Evaluation goodOracle = oracle;
    goodOracle.cycles = 50.0;
    const StudyResult ok({"w"}, {"c"}, {"rppm", "sim"},
                         {model, goodOracle});
    EXPECT_DOUBLE_EQ(ok.errorVs("w", "c", "rppm", "sim"), 1.0);
}

TEST(Study, ProfileOnlySourceServesModelButNotSim)
{
    const WorkloadSpec spec = smallSpec("profile-only", 5);
    const WorkloadProfile profile =
        profileWorkload(synthesizeTrace(spec));

    Study model;
    model.addWorkload(profile).addConfig(baseConfig()).addEvaluator(
        "rppm");
    const StudyResult grid = model.run();
    EXPECT_DOUBLE_EQ(grid.at(spec.name, "Base", "rppm").cycles,
                     predict(profile, baseConfig()).totalCycles);

    Study sim;
    sim.addWorkload(profile).addConfig(baseConfig()).addEvaluator("sim");
    EXPECT_THROW(sim.run(), std::invalid_argument);
}

TEST(Study, ResultQueriesAndExports)
{
    const WorkloadSpec spec = smallSpec("export", 3);
    const MulticoreConfig cfg = baseConfig();
    Study study;
    study.addWorkload(spec).addConfig(cfg).addEvaluator("rppm")
        .addEvaluator("sim");
    const StudyResult grid = study.run();

    // find/at
    EXPECT_NE(grid.find(spec.name, cfg.name, "rppm"), nullptr);
    EXPECT_EQ(grid.find(spec.name, cfg.name, "nope"), nullptr);
    EXPECT_THROW(grid.at("ghost", cfg.name, "rppm"), std::out_of_range);

    // errorVs is |rppm - sim| / sim.
    const double expect =
        std::abs(grid.at(spec.name, cfg.name, "rppm").cycles -
                 grid.at(spec.name, cfg.name, "sim").cycles) /
        grid.at(spec.name, cfg.name, "sim").cycles;
    EXPECT_DOUBLE_EQ(grid.errorVs(spec.name, cfg.name, "rppm", "sim"),
                     expect);

    // sweep returns one cell per config, in config order.
    const auto cells = grid.sweep(spec.name, "rppm");
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_EQ(cells[0]->config, cfg.name);

    // CSV: header + one row per cell; JSON mentions every axis label.
    const std::string csv = grid.csv();
    EXPECT_NE(csv.find("workload,config,evaluator,cycles,seconds"),
              std::string::npos);
    EXPECT_EQ(static_cast<size_t>(
                  std::count(csv.begin(), csv.end(), '\n')),
              1 + grid.cells().size());
    const std::string json = grid.json();
    EXPECT_NE(json.find("\"workload\": \"export\""), std::string::npos);
    EXPECT_NE(json.find("\"evaluator\": \"sim\""), std::string::npos);
}

TEST(Study, RppmOptionVariantsFlowThrough)
{
    // A custom-labelled RppmEvaluator with decompose=false must predict
    // the same total as the full model (the components telescope).
    const WorkloadSpec spec = smallSpec("variant", 17);
    RppmOptions fast;
    fast.eq1.decompose = false;

    Study study;
    study.addWorkload(spec).addConfig(baseConfig());
    study.addEvaluator(std::make_unique<RppmEvaluator>("fast", fast))
        .addEvaluator("rppm");
    const StudyResult grid = study.run();

    EXPECT_NEAR(grid.at(spec.name, "Base", "fast").cycles,
                grid.at(spec.name, "Base", "rppm").cycles, 1e-6);
}

// ----------------------------------------------------------------- dse ---

TEST(Dse, EvaluatorBackedExplorationMatchesPerPointCalls)
{
    const WorkloadSpec spec = smallSpec("dse", 41);
    const std::vector<MulticoreConfig> configs = threeConfigs();

    // Oracle times through the Evaluator interface.
    DseOptions opts;
    opts.jobs = 4;
    const DseResult viaEvaluators =
        exploreDesignSpace(WorkloadSource(spec), configs, opts);

    // The same design points, one predict() and one simulate() each.
    const ColumnarTrace trace = synthesizeTrace(spec);
    const WorkloadProfile profile = profileWorkload(trace);
    DseResult direct;
    for (const MulticoreConfig &cfg : configs) {
        direct.predictedSeconds.push_back(
            predict(profile, cfg).totalSeconds);
        direct.simulatedSeconds.push_back(simulate(trace, cfg).totalSeconds);
    }

    ASSERT_EQ(viaEvaluators.predictedSeconds.size(), configs.size());
    ASSERT_EQ(viaEvaluators.simulatedSeconds.size(), configs.size());
    for (size_t i = 0; i < configs.size(); ++i) {
        EXPECT_DOUBLE_EQ(viaEvaluators.predictedSeconds[i],
                         direct.predictedSeconds[i]) << i;
        EXPECT_DOUBLE_EQ(viaEvaluators.simulatedSeconds[i],
                         direct.simulatedSeconds[i]) << i;
    }
    EXPECT_EQ(viaEvaluators.predictedBest(), direct.predictedBest());
    EXPECT_EQ(viaEvaluators.trueBest(), direct.trueBest());
}

TEST(Dse, RejectsNonOracleBackend)
{
    DseOptions opts;
    opts.oracle = "crit"; // not a golden reference
    EXPECT_THROW(exploreDesignSpace(WorkloadSource(smallSpec("x", 1)),
                                    {baseConfig()}, opts),
                 std::exception);
}

} // namespace
} // namespace rppm
