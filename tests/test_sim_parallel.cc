/**
 * @file
 * Differential tests for the columnar and parallel simulator engines.
 *
 * The contract under test is absolute: simulate() on a ColumnarTrace —
 * sequential or with any SimOptions::jobs — must produce a SimResult
 * *byte-identical* to the committed corpus tests/golden/sim.txt, on
 * every kernel of the workload suite, under custom
 * scheduler/architecture options, and in every dispatch corner (single
 * thread, bus-coupled hierarchy, jobs clamping). Equality is asserted
 * through the byte length and CRC32C of a deterministic hexfloat dump
 * of every SimResult field, so even a 1-ulp drift in any thread's
 * finish time, CPI component, activity interval or cache counter fails.
 * This file also records the corpus (SimGolden below).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <iomanip>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "arch/config.hh"
#include "golden.hh"
#include "sim/simulator.hh"
#include "trace/columnar.hh"
#include "trace/trace_builder.hh"
#include "workload/suite.hh"
#include "workload/workload.hh"

namespace rppm {
namespace {

/** Deterministic dump of every SimResult field (hexfloat: equality
 *  means bit-equality for every double). */
std::string
dumpResult(const SimResult &r)
{
    std::ostringstream ss;
    ss << std::hexfloat;
    ss << r.workload << ' ' << r.config << ' ' << r.totalCycles << ' '
       << r.totalSeconds << '\n';
    for (const ThreadResult &t : r.threads) {
        ss << t.finishTime << ' ' << t.finishSeconds << ' '
           << t.activeCycles << ' ' << t.syncCycles << ' ' << t.core
           << ' ' << t.instructions << '\n';
        for (size_t c = 0; c < kNumCpiComponents; ++c)
            ss << t.cpi[static_cast<CpiComponent>(c)] << ' ';
        ss << '\n';
        for (const ActivityInterval &a : t.activity)
            ss << a.begin << ',' << a.end << ' ';
        ss << '\n';
    }
    for (const CoreMemStats &m : r.mem) {
        ss << m.l1iAccesses << ' ' << m.l1iMisses << ' ' << m.l1dAccesses
           << ' ' << m.l1dMisses << ' ' << m.l2Accesses << ' '
           << m.l2Misses << ' ' << m.llcAccesses << ' ' << m.llcMisses
           << ' ' << m.coherenceMisses << ' ' << m.invalidationsReceived
           << '\n';
    }
    for (const BranchStats &b : r.branch)
        ss << b.lookups << ' ' << b.mispredicts << '\n';
    return ss.str();
}

/** Suite spec scaled down so 26 kernels x several job counts stay fast
 *  (also under sanitizers); all synchronization structure is
 *  preserved. */
WorkloadSpec
scaledSpec(const SuiteEntry &entry, uint64_t divisor = 30)
{
    WorkloadSpec spec = entry.spec;
    spec.opsPerEpoch = std::max<uint64_t>(1, spec.opsPerEpoch / divisor);
    spec.initOps = std::max<uint64_t>(1, spec.initOps / divisor);
    spec.finalOps = std::max<uint64_t>(1, spec.finalOps / divisor);
    spec.itemOps = std::max<uint64_t>(1, spec.itemOps / divisor);
    return spec;
}

/** A structurally rich workload: barriers, critical sections, a
 *  producer-consumer queue, shared data, coherence traffic. */
WorkloadSpec
richSpec(const char *name = "sim-par-test")
{
    WorkloadSpec spec = barrierLoopSpec(4, 5, 2500);
    spec.name = name;
    spec.csPerEpoch = 2;
    spec.queueItems = 6;
    spec.kernel.sharedFrac = 0.25;
    spec.kernel.branchEntropy = 0.1;
    return spec;
}

const unsigned kJobCounts[] = {1, 2, 4, 7};

/** One named architecture / scheduler variant of the rich workload. */
struct Variant
{
    const char *name;
    MulticoreConfig cfg;
    SimOptions opts;
};

/**
 * Options and architectures that change the simulated interleaving or
 * the sharding geometry: the schedule honors the quantum and the
 * sync cost, the shard partition honors non-default line sizes, and
 * heterogeneous machines exercise per-thread time scales and per-slot
 * cache parameters.
 */
std::vector<Variant>
customVariants()
{
    std::vector<Variant> variants;
    variants.push_back({"base", baseConfig(), {}});
    {
        SimOptions opts;
        opts.quantum = 17;
        variants.push_back({"quantum17", baseConfig(), opts});
    }
    {
        SimOptions opts;
        opts.syncOpCost = 7.5;
        variants.push_back({"syncCost", baseConfig(), opts});
    }
    {
        MulticoreConfig cfg = baseConfig();
        for (CoreConfig &core : cfg.cores) {
            core.l1i.lineBytes = 256;
            core.l1d.lineBytes = 256;
            core.l2.lineBytes = 256;
        }
        cfg.llc.lineBytes = 256;
        variants.push_back({"line256", cfg, {}});
    }
    variants.push_back({"bigLittle", bigLittleConfig(2, 2), {}});
    return variants;
}

/** Base with a shared memory bus (memBusCycles > 0). */
MulticoreConfig
busConfig()
{
    MulticoreConfig cfg = baseConfig();
    cfg.memBusCycles = 12;
    return cfg;
}

/** A 1-thread trace: nothing to overlap. */
ColumnarTrace
soloTrace()
{
    ColumnarTrace trace;
    trace.name = "solo";
    trace.threads.resize(1);
    ThreadTraceBuilder main(trace.threads[0]);
    for (uint64_t i = 0; i < 5000; ++i) {
        main.op(OpClass::IntAlu, 4 * static_cast<uint32_t>(i % 96));
        if (i % 3 == 0)
            main.load(64 * (i % 512), 4 * static_cast<uint32_t>(i % 96));
        if (i % 7 == 0)
            main.branch(4 * static_cast<uint32_t>(i % 96), i % 2 == 0);
    }
    return trace;
}

/** Corpus key of workload @p workload on variant @p variant. */
std::string
simKey(const std::string &workload, const char *variant = "base")
{
    return workload + "|" + variant;
}

std::string
fmt(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Corpus line of @p r: key, dump digest, then the totals. */
std::string
simLine(const std::string &key, const SimResult &r)
{
    return golden::digest(key, dumpResult(r)) + " " + fmt(r.totalCycles) +
        " " + fmt(r.totalSeconds);
}

/** Does @p r reproduce the corpus line of @p key? */
::testing::AssertionResult
matchesSimCorpus(const std::string &key, const SimResult &r)
{
    static const std::map<std::string, std::string> corpus =
        golden::load("sim.txt");
    const std::string got = simLine(key, r);
    const auto it = corpus.find(key);
    if (it == corpus.end())
        return ::testing::AssertionFailure()
            << "no line for " << key << " in " << golden::path("sim.txt");
    if (got != it->second)
        return ::testing::AssertionFailure()
            << "computed '" << got << "', corpus '" << it->second << "'";
    return ::testing::AssertionSuccess();
}

/** One line of tests/golden/sim.txt; the trace is built on demand. */
struct SimCase
{
    std::string key;
    std::function<ColumnarTrace()> trace;
    MulticoreConfig cfg;
    SimOptions opts;
};

/** Every case of the sim corpus, in corpus order. */
std::vector<SimCase>
simCorpusCases()
{
    std::vector<SimCase> cases;
    for (const SuiteEntry &entry : fullSuite()) {
        const WorkloadSpec spec = scaledSpec(entry);
        cases.push_back({simKey(spec.name),
                         [spec] { return synthesizeTrace(spec); },
                         baseConfig(),
                         {}});
    }
    const WorkloadSpec rich = richSpec();
    const auto rich_trace = [rich] { return synthesizeTrace(rich); };
    for (const Variant &v : customVariants())
        cases.push_back(
            {simKey(rich.name, v.name), rich_trace, v.cfg, v.opts});
    cases.push_back({simKey(rich.name, "bus12"), rich_trace, busConfig(), {}});
    cases.push_back({simKey("solo"), soloTrace, baseConfig(), {}});
    return cases;
}

TEST(SimGolden, CorpusCoversEveryCase)
{
    // Records tests/golden/sim.txt from the sequential engine when
    // RPPM_GOLDEN_WRITE names it (golden.hh). Otherwise the corpus must
    // hold exactly the cases the identity tests look up.
    const std::vector<SimCase> cases = simCorpusCases();
    const std::string target = golden::writePath("sim.txt");
    if (!target.empty()) {
        std::vector<std::string> lines;
        for (const SimCase &c : cases)
            lines.push_back(
                simLine(c.key, simulate(c.trace(), c.cfg, c.opts)));
        ASSERT_TRUE(golden::write(
            target,
            "# RPPM golden simulation corpus: <workload>|<variant>, the\n"
            "# byte length and CRC32C of the hexfloat SimResult dump,\n"
            "# then %.17g totalCycles and totalSeconds.\n"
            "# Written by tests/test_sim_parallel.cc; see "
            "tests/golden.hh before regenerating.\n",
            lines))
            << "cannot write " << target;
        return;
    }
    const std::map<std::string, std::string> corpus = golden::load("sim.txt");
    EXPECT_EQ(corpus.size(), cases.size());
    for (const SimCase &c : cases)
        EXPECT_EQ(corpus.count(c.key), 1u) << "no corpus line for " << c.key;
}

TEST(ParallelSimulator, BitIdenticalOnEveryKernelForEveryJobCount)
{
    // The tentpole guarantee: on all 26 suite kernels, the columnar
    // engine and the phased parallel engine reproduce the corpus byte
    // for byte, for every tested job count (including the sequential
    // columnar path itself, jobs = 1).
    const MulticoreConfig cfg = baseConfig();
    for (const SuiteEntry &entry : fullSuite()) {
        const WorkloadSpec spec = scaledSpec(entry);
        const ColumnarTrace cols = synthesizeTrace(spec);
        for (const unsigned jobs : kJobCounts) {
            SimOptions opts;
            opts.jobs = jobs;
            EXPECT_TRUE(matchesSimCorpus(simKey(spec.name),
                                         simulate(cols, cfg, opts)))
                << "jobs=" << jobs;
        }
    }
}

TEST(ParallelSimulator, BitIdenticalUnderCustomOptions)
{
    // Every engine stays on the corpus under each custom variant.
    const ColumnarTrace cols = synthesizeTrace(richSpec());
    for (const Variant &v : customVariants()) {
        for (const unsigned jobs : kJobCounts) {
            SimOptions opts = v.opts;
            opts.jobs = jobs;
            EXPECT_TRUE(matchesSimCorpus(simKey(cols.name, v.name),
                                         simulate(cols, v.cfg, opts)))
                << "jobs=" << jobs;
        }
    }
}

TEST(ParallelSimulator, BusCoupledConfigFallsBackAndStaysIdentical)
{
    // memBusCycles > 0 couples cache latency to global time, which the
    // sharded replay cannot honor; the dispatcher must route such
    // configs to the sequential engine for every job count — still
    // byte-identical to the corpus.
    const ColumnarTrace cols = synthesizeTrace(richSpec());
    for (const unsigned jobs : kJobCounts) {
        SimOptions opts;
        opts.jobs = jobs;
        EXPECT_TRUE(matchesSimCorpus(simKey(cols.name, "bus12"),
                                     simulate(cols, busConfig(), opts)))
            << "bus jobs=" << jobs;
    }
}

TEST(ParallelSimulator, SingleThreadedTraceIsIdenticalAtAnyJobCount)
{
    // A 1-thread trace has nothing to overlap; the dispatcher runs it
    // sequentially no matter what jobs says, and the result matches.
    const ColumnarTrace cols = soloTrace();
    for (const unsigned jobs : kJobCounts) {
        SimOptions opts;
        opts.jobs = jobs;
        EXPECT_TRUE(matchesSimCorpus(simKey("solo"),
                                     simulate(cols, baseConfig(), opts)))
            << "1-thread jobs=" << jobs;
    }
}

TEST(ParallelSimulator, JobsZeroMeansAllHardwareThreads)
{
    // jobs = 0 resolves to the hardware thread count; whatever that is
    // on the host, the result bits cannot change.
    const ColumnarTrace cols = synthesizeTrace(richSpec());
    SimOptions opts;
    opts.jobs = 0;
    EXPECT_TRUE(matchesSimCorpus(simKey(cols.name),
                                 simulate(cols, baseConfig(), opts)));
}

TEST(ParallelSimulator, RejectsZeroQuantum)
{
    const ColumnarTrace cols = synthesizeTrace(richSpec());
    SimOptions opts;
    opts.quantum = 0;
    EXPECT_THROW(simulate(cols, baseConfig(), opts), std::invalid_argument);
}

} // namespace
} // namespace rppm
