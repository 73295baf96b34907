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
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
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

TEST(Study, ThreadEvaluationScheduleMatchesPerPointPredict)
{
    // The grid runs its distinct phase-1 thread evaluations as one
    // batch of tasks, then the cells. At every worker count each cell
    // must equal per-point predict() to the last bit, and each row must
    // count exactly what a predictGrid of that row counts.
    std::vector<WorkloadSpec> specs;
    for (const uint64_t seed : {41u, 42u}) {
        WorkloadSpec spec = barrierLoopSpec(4, 3, 1500);
        spec.name = "sched-" + std::to_string(seed);
        spec.seed = seed;
        spec.csPerEpoch = 1;
        spec.kernel.sharedFrac = 0.2;
        spec.kernel.branchEntropy = 0.1;
        specs.push_back(spec);
    }
    // Table IV, the 27-state per-core DVFS ladder on Base and every
    // big.LITTLE 2+2 placement.
    std::vector<MulticoreConfig> configs = tableIvConfigs();
    const MulticoreConfig base = baseConfig();
    for (double a : {1.67, 2.5, 3.33}) {
        for (double b : {1.67, 2.5, 3.33}) {
            for (double c : {1.67, 2.5, 3.33}) {
                configs.push_back(dvfsConfig(
                    base, {2.5, a, b, c},
                    "dvfs-" + std::to_string(configs.size())));
            }
        }
    }
    for (const MulticoreConfig &m :
         mappingSweep(bigLittleConfig(2, 2), specs[0].numThreads()))
        configs.push_back(m);

    // The variant profiles with its own options, so it gets its own
    // memo engine and every row's counters are its engine's.
    RppmOptions fast;
    fast.eq1.decompose = false;
    ProfilerOptions dense;
    dense.microTraceInterval = 5000;
    struct Row
    {
        size_t workload;
        std::string evaluator;
        RppmOptions opts;
        ProfilerOptions profiler;
    };
    const std::vector<Row> rows = {{0, "rppm", {}, {}},
                                   {0, "fast", fast, dense},
                                   {1, "rppm", {}, {}},
                                   {1, "fast", fast, dense}};
    const auto addEvaluators = [&](Study &study, const std::string &only) {
        if (only.empty() || only == "rppm")
            study.addEvaluator("rppm");
        if (only.empty() || only == "fast")
            study.addEvaluator(
                std::make_unique<RppmEvaluator>("fast", fast, dense));
    };

    std::vector<std::vector<RppmPrediction>> expected;
    std::vector<MemoStats> rowStats(rows.size());
    MemoStats total;
    for (size_t r = 0; r < rows.size(); ++r) {
        const WorkloadProfile profile = profileWorkload(
            synthesizeTrace(specs[rows[r].workload]), rows[r].profiler);
        expected.emplace_back();
        for (const MulticoreConfig &cfg : configs)
            expected.back().push_back(predict(profile, cfg, rows[r].opts));
        predictGrid(profile, configs, rows[r].opts, &rowStats[r]);
        // Every (thread, config) pair is one phase-1 evaluation or one
        // hit, and every config one sync run or one hit, however the
        // grid is scheduled.
        EXPECT_EQ(rowStats[r].threadEvals + rowStats[r].threadHits,
                  configs.size() * profile.numThreads);
        EXPECT_EQ(rowStats[r].syncRuns + rowStats[r].syncHits,
                  configs.size());
        total.add(rowStats[r]);
    }

    const auto g17 = [](double v) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return std::string(buf);
    };
    const auto expectStats = [](const MemoStats &got, const MemoStats &want,
                                const std::string &where) {
        EXPECT_EQ(got.predictions, want.predictions) << where;
        EXPECT_EQ(got.threadEvals, want.threadEvals) << where;
        EXPECT_EQ(got.threadHits, want.threadHits) << where;
        EXPECT_EQ(got.syncRuns, want.syncRuns) << where;
        EXPECT_EQ(got.syncHits, want.syncHits) << where;
        EXPECT_EQ(got.stacksBuilt, want.stacksBuilt) << where;
        EXPECT_EQ(got.curvePoints, want.curvePoints) << where;
        EXPECT_EQ(got.curveHits, want.curveHits) << where;
    };

    for (const unsigned jobs : {1u, 2u, 3u, 7u}) {
        const std::string at = "jobs " + std::to_string(jobs);
        Study study;
        for (const WorkloadSpec &spec : specs)
            study.addWorkload(spec);
        study.addConfigs(configs).jobs(jobs);
        addEvaluators(study, "");
        const StudyResult grid = study.run();
        ASSERT_EQ(grid.cells().size(), rows.size() * configs.size());
        for (size_t r = 0; r < rows.size(); ++r) {
            const std::string &workload = specs[rows[r].workload].name;
            for (size_t c = 0; c < configs.size(); ++c) {
                const std::string where = at + " " + workload + "/" +
                    rows[r].evaluator + "/" + configs[c].name;
                const RppmPrediction &want = expected[r][c];
                const Evaluation &cell =
                    grid.at(workload, configs[c].name, rows[r].evaluator);
                EXPECT_EQ(g17(cell.cycles), g17(want.totalCycles)) << where;
                EXPECT_EQ(g17(cell.seconds), g17(want.totalSeconds))
                    << where;
                ASSERT_EQ(cell.threadSeconds.size(),
                          want.threadSeconds.size())
                    << where;
                for (size_t t = 0; t < want.threadSeconds.size(); ++t) {
                    EXPECT_EQ(g17(cell.threadSeconds[t]),
                              g17(want.threadSeconds[t]))
                        << where << " t" << t;
                }
            }
        }
        ASSERT_TRUE(study.lastMemoStats().has_value()) << at;
        expectStats(*study.lastMemoStats(), total, at);

        // Each row alone, on the same worker count.
        for (size_t r = 0; r < rows.size(); ++r) {
            Study row;
            row.addWorkload(specs[rows[r].workload])
                .addConfigs(configs)
                .jobs(jobs);
            addEvaluators(row, rows[r].evaluator);
            row.run();
            ASSERT_TRUE(row.lastMemoStats().has_value());
            expectStats(*row.lastMemoStats(), rowStats[r],
                        at + " row " + std::to_string(r));
        }
    }
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
