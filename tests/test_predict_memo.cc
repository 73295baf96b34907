/**
 * @file
 * Differential tests for the memoized component-level prediction engine:
 * predictGrid (shared EpochStacks, per-thread Eq.-1 memoization, sync
 * reuse) must be bit-identical to rppm::predict called per design point
 * on every suite kernel across the Table-IV/Table-V design grid, a
 * per-core DVFS ladder, a big.LITTLE placement sweep and a
 * bus-contention config, and must reproduce the total cycles of every
 * point the golden corpus tests/golden/predict.txt holds — plus
 * Study-level equivalence, worker-pool determinism, cache-efficiency
 * accounting and the phase-1 planner of a warm engine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "arch/component_key.hh"
#include "arch/config.hh"
#include "common/parallel.hh"
#include "golden.hh"
#include "profile/profiler.hh"
#include "rppm/memo.hh"
#include "rppm/predictor.hh"
#include "study/study.hh"
#include "workload/suite.hh"
#include "workload/workload.hh"

namespace rppm {
namespace {

/** Shrink a suite spec to test-friendly size while keeping structure.
 *  At the default divisor this is the golden prediction corpus' scale
 *  (test_predict_golden.cc). */
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

/** EXPECT bit-exact equality of two predictions, component by
 *  component. */
void
expectIdentical(const RppmPrediction &a, const RppmPrediction &b,
                const std::string &context)
{
    EXPECT_EQ(a.totalCycles, b.totalCycles) << context;
    EXPECT_EQ(a.totalSeconds, b.totalSeconds) << context;
    ASSERT_EQ(a.threads.size(), b.threads.size()) << context;
    ASSERT_EQ(a.threadIdle.size(), b.threadIdle.size()) << context;
    ASSERT_EQ(a.threadSeconds.size(), b.threadSeconds.size()) << context;
    EXPECT_EQ(a.threadCoreIds, b.threadCoreIds) << context;
    for (size_t t = 0; t < a.threads.size(); ++t) {
        const ThreadPrediction &ta = a.threads[t];
        const ThreadPrediction &tb = b.threads[t];
        EXPECT_EQ(ta.activeCycles, tb.activeCycles) << context << " t" << t;
        EXPECT_EQ(ta.instructions, tb.instructions) << context << " t" << t;
        for (size_t k = 0; k < kNumCpiComponents; ++k) {
            const auto comp = static_cast<CpiComponent>(k);
            EXPECT_EQ(ta.stack[comp], tb.stack[comp])
                << context << " t" << t << " component " << k;
        }
        ASSERT_EQ(ta.epochs.size(), tb.epochs.size()) << context;
        for (size_t e = 0; e < ta.epochs.size(); ++e) {
            EXPECT_EQ(ta.epochs[e].cycles, tb.epochs[e].cycles)
                << context << " t" << t << " epoch " << e;
            EXPECT_EQ(ta.epochs[e].deff, tb.epochs[e].deff)
                << context << " t" << t << " epoch " << e;
            EXPECT_EQ(ta.epochs[e].mlp, tb.epochs[e].mlp)
                << context << " t" << t << " epoch " << e;
        }
        EXPECT_EQ(a.threadIdle[t], b.threadIdle[t]) << context << " t" << t;
        EXPECT_EQ(a.threadSeconds[t], b.threadSeconds[t])
            << context << " t" << t;
    }
}

/**
 * Total cycles of @p kernel (at the default shrink, default profiler
 * options) on @p config under Eq1Options variant @p variant in the
 * golden prediction corpus, or NaN when the corpus lacks that point.
 */
double
corpusCycles(const std::string &kernel, const std::string &config,
             const std::string &variant)
{
    static const std::map<std::string, std::string> corpus =
        golden::load("predict.txt");
    const auto it = corpus.find(kernel + "|" + config + "|" + variant);
    if (it == corpus.end())
        return std::numeric_limits<double>::quiet_NaN();
    // %.17g round-trips every double exactly.
    return std::strtod(it->second.c_str() + it->second.find(' '), nullptr);
}

/**
 * Expect predictGrid over @p grid to equal rppm::predict per point bit
 * for bit, and the corpus' total cycles of @p kernel under @p variant
 * wherever the corpus holds the point. Returns how many points the
 * corpus checked.
 */
size_t
expectGridsIdentical(const WorkloadProfile &profile,
                     const std::vector<MulticoreConfig> &grid,
                     const RppmOptions &opts, const std::string &kernel,
                     const std::string &variant, const std::string &context)
{
    const auto memo = predictGrid(profile, grid, opts);
    EXPECT_EQ(memo.size(), grid.size());
    size_t checked = 0;
    for (size_t i = 0; i < std::min(memo.size(), grid.size()); ++i) {
        const std::string where = context + "/" + grid[i].name;
        expectIdentical(predict(profile, grid[i], opts), memo[i], where);
        const double golden = corpusCycles(kernel, grid[i].name, variant);
        if (!std::isnan(golden)) {
            EXPECT_EQ(memo[i].totalCycles, golden) << where;
            ++checked;
        }
    }
    return checked;
}

/** The Table-V DSE design space is the Table-IV grid (iso-throughput
 *  width/frequency points). */
std::vector<MulticoreConfig>
tableIvVGrid()
{
    return tableIvConfigs();
}

std::vector<MulticoreConfig>
dvfsGrid()
{
    const MulticoreConfig base = baseConfig();
    std::vector<MulticoreConfig> grid;
    int i = 0;
    for (double ghz : {1.67, 2.5, 3.33}) {
        grid.push_back(dvfsConfig(base, {2.5, ghz, 2.5, ghz},
                                  "dvfs-" + std::to_string(i++)));
    }
    return grid;
}

// ------------------------------------------- suite-wide bit identity ---

TEST(PredictMemo, BitIdenticalOnTableIvGridAllKernels)
{
    for (const SuiteEntry &entry : fullSuite()) {
        const WorkloadSpec spec = shrink(entry.spec);
        const WorkloadProfile prof =
            profileWorkload(synthesizeTrace(spec));
        EXPECT_EQ(expectGridsIdentical(prof, tableIvVGrid(), {}, spec.name,
                                       "full", spec.name),
                  tableIvVGrid().size())
            << spec.name << ": Table IV points missing from the corpus";
    }
}

TEST(PredictMemo, BitIdenticalOnMappingSweepAllKernels)
{
    for (const SuiteEntry &entry : fullSuite()) {
        const WorkloadSpec spec = shrink(entry.spec);
        const WorkloadProfile prof =
            profileWorkload(synthesizeTrace(spec));
        // The corpus holds the first placement of the sweep.
        EXPECT_EQ(expectGridsIdentical(
                      prof,
                      mappingSweep(bigLittleConfig(2, 2), spec.numThreads()),
                      {}, spec.name, "full", spec.name + "/mapping"),
                  1u)
            << spec.name;
    }
}

TEST(PredictMemo, BitIdenticalOnDvfsAndBusGrids)
{
    // Heavier per-kernel grids on a representative subset: a per-core
    // DVFS ladder (per-core DRAM rescale) and a bus-contention config
    // (clock-domain fields enter the component keys only here).
    int i = 0;
    for (const SuiteEntry &entry : fullSuite()) {
        if (++i % 5 != 1)
            continue;
        const WorkloadSpec spec = shrink(entry.spec);
        const WorkloadProfile prof =
            profileWorkload(synthesizeTrace(spec));
        std::vector<MulticoreConfig> grid = dvfsGrid();
        MulticoreConfig bus = baseConfig();
        bus.name = "bus";
        bus.memBusCycles = 8;
        grid.push_back(bus);
        MulticoreConfig bus2 = bus;
        bus2.name = "bus-fast";
        bus2.eachCore([](CoreConfig &c) { c.frequencyGHz = 3.2; });
        grid.push_back(bus2);
        expectGridsIdentical(prof, grid, {}, spec.name, "full",
                             spec.name + "/dvfs+bus");
    }
}

TEST(PredictMemo, BitIdenticalUnderOptionVariants)
{
    // Ablation options flow into the cache keys; every variant must
    // stay bit-identical to its own per-point evaluation and to the
    // corpus (variant names as in test_predict_golden.cc).
    const WorkloadSpec spec = shrink(fullSuite()[2].spec);
    const WorkloadProfile prof = profileWorkload(synthesizeTrace(spec));
    const char *const names[] = {"nodecompose", "noilp", "localllc",
                                 "nomlp", "nobranch"};
    for (int variant = 0; variant < 5; ++variant) {
        RppmOptions opts;
        switch (variant) {
        case 0: opts.eq1.decompose = false; break;
        case 1: opts.eq1.ilpReplay = false; break;
        case 2: opts.eq1.llcUsesGlobalRd = false; break;
        case 3: opts.eq1.mlpOverlap = false; break;
        case 4: opts.eq1.branch = false; break;
        }
        EXPECT_EQ(expectGridsIdentical(prof, tableIvVGrid(), opts,
                                       spec.name, names[variant],
                                       names[variant]),
                  tableIvVGrid().size());
    }
}

// ----------------------------------------------- engine/key behaviour ---

TEST(PredictMemo, MappingSweepReusesThreadEvaluations)
{
    const WorkloadSpec spec = shrink(fullSuite()[0].spec);
    const WorkloadProfile prof = profileWorkload(synthesizeTrace(spec));
    const auto grid = mappingSweep(bigLittleConfig(2, 2),
                                   spec.numThreads());
    ASSERT_GT(grid.size(), 1u);

    MemoStats stats;
    predictGrid(prof, grid, {}, &stats);
    // A placement sweep touches two core kinds, so each thread is
    // evaluated at most twice no matter how many placements exist.
    EXPECT_EQ(stats.predictions, grid.size());
    EXPECT_LE(stats.threadEvals, 2u * prof.numThreads);
    EXPECT_GT(stats.threadHits, 0u);
    // Every epoch's stack bundle is built exactly once across the grid.
    EXPECT_GT(stats.curveHits, 0u);
}

TEST(PredictMemo, DvfsAxisIsFreeWithBusOff)
{
    // With the bus off, frequency enters phase 1 only through the DVFS
    // factory's DRAM-latency rescale; two states with the same rescaled
    // memLatency share every component key.
    const WorkloadSpec spec = shrink(fullSuite()[0].spec);
    const WorkloadProfile prof = profileWorkload(synthesizeTrace(spec));
    const MulticoreConfig base = baseConfig();

    // dvfs at the reference frequency rescales memLatency by 1.0: the
    // per-thread keys must match Base exactly.
    const MulticoreConfig same =
        dvfsConfig(base, {2.5, 2.5, 2.5, 2.5}, "dvfs-ref");
    for (uint32_t t = 0; t < prof.numThreads; ++t) {
        EXPECT_EQ(threadComponentKey(base, t), threadComponentKey(same, t));
    }

    MemoStats stats;
    predictGrid(prof, {base, same}, {}, &stats);
    EXPECT_EQ(stats.threadEvals, prof.numThreads);
    EXPECT_EQ(stats.threadHits, prof.numThreads);
    // Identical scales and keys: the sync execution is reused too.
    EXPECT_EQ(stats.syncRuns, 1u);
    EXPECT_EQ(stats.syncHits, 1u);
}

TEST(PredictMemo, ThreadKeyTracksOnlyReadFields)
{
    const MulticoreConfig base = baseConfig();
    const std::string key = threadComponentKey(base, 0);
    const auto keyAfter = [&base](const auto &edit) {
        MulticoreConfig cfg = base;
        edit(cfg);
        return threadComponentKey(cfg, 0);
    };
    const auto eachCore = [](const auto &edit) {
        return [edit](MulticoreConfig &cfg) { cfg.eachCore(edit); };
    };

    // One field of each section invalidates the key: ROB (core term),
    // LLC size (memory), predictor budget (branch).
    EXPECT_NE(key, keyAfter(eachCore([](CoreConfig &c) { c.robSize *= 2; })));
    EXPECT_NE(key, keyAfter([](MulticoreConfig &c) { c.llc.sizeBytes *= 2; }));
    EXPECT_NE(key, keyAfter(eachCore(
                       [](CoreConfig &c) { c.branch.totalBytes *= 2; })));

    // Fields the model never distinguishes leave it alone: LLC
    // associativity at an unchanged line count, and frequency while the
    // bus is off.
    EXPECT_EQ(key, keyAfter([](MulticoreConfig &c) { c.llc.assoc *= 2; }));
    const auto fast = eachCore([](CoreConfig &c) { c.frequencyGHz = 3.6; });
    EXPECT_EQ(key, keyAfter(fast));

    // With the bus on, frequency enters the bus section.
    const auto bus = [](MulticoreConfig &c) { c.memBusCycles = 4; };
    EXPECT_NE(key, keyAfter(bus));
    EXPECT_NE(keyAfter(bus), keyAfter([&](MulticoreConfig &c) {
                  bus(c);
                  fast(c);
              }));
}

// -------------------------------------------------- Study integration ---

TEST(PredictMemo, StudyMatchesPerPointPredict)
{
    const WorkloadSpec spec = shrink(fullSuite()[1].spec);
    const ColumnarTrace trace = synthesizeTrace(spec);
    std::vector<MulticoreConfig> grid = tableIvConfigs();
    for (const MulticoreConfig &m :
         mappingSweep(bigLittleConfig(2, 2), spec.numThreads()))
        grid.push_back(m);

    const auto runStudy = [&](unsigned jobs) {
        Study study;
        study.addWorkload(trace)
            .addConfigs(grid)
            .addEvaluator("rppm")
            .jobs(jobs);
        return study.run();
    };

    const StudyResult memo = runStudy(1);
    const StudyResult memoParallel = runStudy(4);
    const WorkloadProfile prof = profileWorkload(trace);

    ASSERT_EQ(memo.cells().size(), grid.size());
    ASSERT_EQ(memoParallel.cells().size(), grid.size());
    size_t checked = 0;
    for (size_t i = 0; i < grid.size(); ++i) {
        const RppmPrediction point = predict(prof, grid[i]);
        EXPECT_EQ(memo.cells()[i].config, grid[i].name);
        EXPECT_EQ(memo.cells()[i].cycles, point.totalCycles);
        EXPECT_EQ(memo.cells()[i].seconds, point.totalSeconds);
        EXPECT_EQ(memo.cells()[i].threadSeconds, point.threadSeconds);
        const double golden = corpusCycles(spec.name, grid[i].name, "full");
        if (!std::isnan(golden)) {
            EXPECT_EQ(memo.cells()[i].cycles, golden) << grid[i].name;
            ++checked;
        }
        // Worker count must not change a single bit either.
        EXPECT_EQ(memo.cells()[i].cycles, memoParallel.cells()[i].cycles);
        EXPECT_EQ(memo.cells()[i].threadSeconds,
                  memoParallel.cells()[i].threadSeconds);
        EXPECT_EQ(memo.cells()[i].workload,
                  memoParallel.cells()[i].workload);
        EXPECT_EQ(memo.cells()[i].config, memoParallel.cells()[i].config);
    }
    // Table IV plus the sweep's first placement.
    EXPECT_EQ(checked, tableIvConfigs().size() + 1);
}

TEST(PredictMemo, StudyReportsCacheEfficiency)
{
    const WorkloadSpec spec = shrink(fullSuite()[0].spec);
    const ColumnarTrace trace = synthesizeTrace(spec);

    Study study;
    study.addWorkload(trace)
        .addConfigs(mappingSweep(bigLittleConfig(2, 2), spec.numThreads()))
        .addEvaluator("rppm");
    const StudyResult result = study.run();
    ASSERT_FALSE(result.cells().empty());

    ASSERT_TRUE(study.lastMemoStats().has_value());
    const MemoStats &stats = *study.lastMemoStats();
    EXPECT_EQ(stats.predictions, result.cells().size());
    EXPECT_GT(stats.threadHits, 0u);
    EXPECT_FALSE(stats.summary().empty());
}

TEST(PredictMemo, StudyEvaluatesEachKeyExactlyOnce)
{
    // The caches are single-flight: concurrent grid workers that miss
    // on one key wait for the first evaluation instead of repeating it,
    // so the counters are the serial engine's at every worker count.
    const WorkloadSpec spec = shrink(fullSuite()[1].spec);
    const ColumnarTrace trace = synthesizeTrace(spec);
    std::vector<MulticoreConfig> grid = tableIvConfigs();
    for (const MulticoreConfig &m :
         mappingSweep(bigLittleConfig(2, 2), spec.numThreads()))
        grid.push_back(m);

    const WorkloadProfile prof = profileWorkload(trace);
    MemoStats serial;
    predictGrid(prof, grid, {}, &serial);
    size_t epochs = 0;
    for (const ThreadProfile &t : prof.threads)
        epochs += t.epochs.size();
    EXPECT_EQ(serial.stacksBuilt, epochs);
    EXPECT_EQ(serial.threadEvals + serial.threadHits,
              grid.size() * prof.numThreads);
    EXPECT_EQ(serial.syncRuns + serial.syncHits, grid.size());

    for (const unsigned jobs : {1u, 4u, 4u, 4u}) {
        Study study;
        study.addWorkload(trace).addConfigs(grid).addEvaluator("rppm").jobs(
            jobs);
        study.run();
        ASSERT_TRUE(study.lastMemoStats().has_value());
        const MemoStats &stats = *study.lastMemoStats();
        EXPECT_EQ(stats.predictions, grid.size()) << "jobs " << jobs;
        EXPECT_EQ(stats.threadEvals, serial.threadEvals) << "jobs " << jobs;
        EXPECT_EQ(stats.threadHits, serial.threadHits) << "jobs " << jobs;
        EXPECT_EQ(stats.syncRuns, serial.syncRuns) << "jobs " << jobs;
        EXPECT_EQ(stats.syncHits, serial.syncHits) << "jobs " << jobs;
        EXPECT_EQ(stats.stacksBuilt, serial.stacksBuilt) << "jobs " << jobs;
        EXPECT_EQ(stats.curvePoints, serial.curvePoints) << "jobs " << jobs;
    }
}

TEST(OnceCache, PrefetchIsChargedToTheFirstGet)
{
    OnceCache<int, int> cache;
    int evals = 0;
    const auto eval = [&] {
        ++evals;
        return std::make_shared<const int>(5);
    };
    cache.prefetch(1, eval);
    EXPECT_TRUE(cache.contains(1));
    EXPECT_FALSE(cache.contains(2));
    // Prefetching a held key is a no-op: no evaluation, no hit.
    cache.prefetch(1, eval);
    EXPECT_EQ(evals, 1);
    EXPECT_EQ(cache.evaluations(), 1u);
    EXPECT_EQ(cache.hits(), 0u);

    // The first get() is the evaluating call; later ones are hits, just
    // as if no prefetch had happened.
    EXPECT_EQ(*cache.get(1, eval), 5);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(*cache.get(1, eval), 5);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(evals, 1);
}

TEST(OnceCache, FailedEvaluationWakesWaitersAndIsRetried)
{
    OnceCache<int, int> cache;
    std::atomic<bool> waiter_evaluated{false};
    std::thread waiter;
    const auto waitOnKey = [&] {
        EXPECT_THROW(cache.get(1,
                               [&] {
                                   waiter_evaluated = true;
                                   return std::make_shared<const int>(0);
                               }),
                     std::runtime_error);
    };
    const auto failingEval = [&]() -> std::shared_ptr<const int> {
        // Hold the key in flight until a second caller waits on it.
        waiter = std::thread(waitOnKey);
        while (cache.hits() == 0)
            std::this_thread::yield();
        throw std::runtime_error("evaluation failed");
    };
    EXPECT_THROW(cache.get(1, failingEval), std::runtime_error);
    waiter.join();
    EXPECT_FALSE(waiter_evaluated);
    EXPECT_EQ(cache.evaluations(), 0u);

    // The failure left no entry: the next call evaluates afresh, once.
    EXPECT_EQ(*cache.get(1, [] { return std::make_shared<const int>(7); }),
              7);
    EXPECT_EQ(*cache.get(1, [] { return std::make_shared<const int>(8); }),
              7);
    EXPECT_EQ(cache.evaluations(), 1u);
    EXPECT_EQ(cache.hits(), 2u);
}

TEST(PredictMemo, WarmEnginePlansOnlyMissingKeys)
{
    // A long-lived engine (rppmd keeps one per profile across requests)
    // that already served some configs plans only the phase-1 keys it
    // lacks, and ends with the counters of a fresh engine that served
    // the union.
    const WorkloadSpec spec = shrink(fullSuite()[1].spec);
    const auto prof = std::make_shared<const WorkloadProfile>(
        profileWorkload(synthesizeTrace(spec)));
    const std::vector<MulticoreConfig> served = tableIvConfigs();
    std::vector<MulticoreConfig> asked;
    const MulticoreConfig base = baseConfig();
    for (double ghz : {1.67, 2.5, 3.33}) {
        for (double other : {1.67, 3.33}) {
            asked.push_back(dvfsConfig(
                base, {2.5, ghz, other, ghz},
                "dvfs-" + std::to_string(asked.size())));
        }
    }
    for (const MulticoreConfig &m :
         mappingSweep(bigLittleConfig(2, 2), spec.numThreads()))
        asked.push_back(m);

    PredictionMemo warm(prof);
    for (const MulticoreConfig &cfg : served)
        warm.predict(cfg);

    const PredictionMemo fresh(prof);
    std::set<std::string> servedKeys;
    for (const ThreadEval &task : fresh.planThreads(served, {}))
        servedKeys.insert(task.key);
    const std::vector<ThreadEval> all = fresh.planThreads(asked, {});
    std::vector<std::string> missing;
    for (const ThreadEval &task : all) {
        if (servedKeys.count(task.key) == 0)
            missing.push_back(task.key);
    }
    // The DVFS states at the reference clock share Base's keys, so the
    // warm engine must have something to skip.
    ASSERT_LT(missing.size(), all.size());

    const std::vector<ThreadEval> tasks = warm.planThreads(asked, {});
    std::vector<std::string> planned;
    for (const ThreadEval &task : tasks)
        planned.push_back(task.key);
    EXPECT_EQ(planned, missing);

    ParallelExecutor(3).forEach(tasks.size(), [&](size_t i) {
        warm.runThread(tasks[i]);
    });
    EXPECT_TRUE(warm.planThreads(asked, {}).empty());
    for (const MulticoreConfig &cfg : asked)
        expectIdentical(predict(*prof, cfg), warm.predict(cfg), cfg.name);

    std::vector<MulticoreConfig> both = served;
    both.insert(both.end(), asked.begin(), asked.end());
    MemoStats expected;
    predictGrid(*prof, both, {}, &expected);
    const MemoStats got = warm.stats();
    EXPECT_EQ(got.predictions, expected.predictions);
    EXPECT_EQ(got.threadEvals, expected.threadEvals);
    EXPECT_EQ(got.threadHits, expected.threadHits);
    EXPECT_EQ(got.syncRuns, expected.syncRuns);
    EXPECT_EQ(got.syncHits, expected.syncHits);
    EXPECT_EQ(got.stacksBuilt, expected.stacksBuilt);
    EXPECT_EQ(got.curvePoints, expected.curvePoints);
    EXPECT_EQ(got.curveHits, expected.curveHits);
}

TEST(PredictMemo, MixedEvaluatorsShareOneGrid)
{
    // Memo-capable and baseline evaluators coexist in one grid.
    const WorkloadSpec spec = shrink(fullSuite()[0].spec, 40);
    const ColumnarTrace trace = synthesizeTrace(spec);

    Study study;
    study.addWorkload(trace)
        .addConfigs(tableIvConfigs())
        .addEvaluator("rppm")
        .addEvaluator("main")
        .addEvaluator("crit")
        .jobs(4);
    const StudyResult grid = study.run();
    for (const std::string &cfg : grid.configs()) {
        EXPECT_GT(grid.at(spec.name, cfg, "rppm").cycles, 0.0);
        EXPECT_GT(grid.at(spec.name, cfg, "main").cycles, 0.0);
        EXPECT_GT(grid.at(spec.name, cfg, "crit").cycles, 0.0);
    }
}

} // namespace
} // namespace rppm
