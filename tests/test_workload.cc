/**
 * @file
 * Unit tests for src/workload: kernel characteristics land where the
 * parameters aim, workload structure is well-formed, and the benchmark
 * suite matches the paper's setup.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <unordered_map>

#include "common/rng.hh"
#include "workload/kernel.hh"
#include "workload/suite.hh"
#include "workload/workload.hh"

namespace rppm {
namespace {

/** One thread's columns as emitted by a kernel. */
ColumnarTrace
kernelColumns(const KernelParams &params, uint64_t ops, uint64_t seed = 7)
{
    ColumnarTrace trace;
    trace.threads.resize(1);
    ThreadTraceBuilder builder(trace.threads[0]);
    KernelGenerator gen(params, 0, 0x1000, Rng(seed));
    gen.emit(builder, ops);
    return trace;
}

/** The same stream record by record, for per-record assertions. */
ThreadTrace
runKernel(const KernelParams &params, uint64_t ops, uint64_t seed = 7)
{
    return kernelColumns(params, ops, seed).toWorkload().threads[0];
}

TEST(Kernel, EmitsExactOpCount)
{
    const ColumnarTrace t = kernelColumns(KernelParams{}, 12345);
    EXPECT_EQ(t.totalOps(), 12345u);
    // Kernels emit no sync records.
    EXPECT_EQ(t.threads[0].numRecords(), 12345u);
}

TEST(Kernel, Deterministic)
{
    const ThreadTrace a = runKernel(KernelParams{}, 5000, 3);
    const ThreadTrace b = runKernel(KernelParams{}, 5000, 3);
    ASSERT_EQ(a.records.size(), b.records.size());
    for (size_t i = 0; i < a.records.size(); ++i) {
        EXPECT_EQ(a.records[i].addr, b.records[i].addr);
        EXPECT_EQ(a.records[i].op, b.records[i].op);
        EXPECT_EQ(a.records[i].taken, b.records[i].taken);
    }
}

TEST(Kernel, InstructionMixMatchesParams)
{
    KernelParams p;
    p.fracBranch = 0.2;
    p.fracLoad = 0.3;
    p.fracStore = 0.1;
    p.sharedFrac = 0.0; // keep store ratio exact
    const ThreadTrace t = runKernel(p, 100000);
    std::unordered_map<OpClass, uint64_t> mix;
    for (const auto &rec : t.records)
        ++mix[rec.op];
    const double n = static_cast<double>(t.records.size());
    EXPECT_NEAR(mix[OpClass::Branch] / n, 0.2, 0.02);
    // Memory ops: (1 - branch) * (load + store) = 0.8 * 0.4 = 0.32.
    const double mem_frac =
        (mix[OpClass::Load] + mix[OpClass::Store]) / n;
    EXPECT_NEAR(mem_frac, 0.32, 0.02);
    // Stores are fracStore/(fracLoad+fracStore) = 25% of memory ops.
    const double store_share = static_cast<double>(mix[OpClass::Store]) /
        (mix[OpClass::Load] + mix[OpClass::Store]);
    EXPECT_NEAR(store_share, 0.25, 0.03);
}

TEST(Kernel, BranchEntropyHitsTarget)
{
    for (double target : {0.02, 0.1, 0.3}) {
        KernelParams p;
        p.fracBranch = 0.2;
        p.branchEntropy = target;
        const ThreadTrace t = runKernel(p, 200000);
        // Recompute entropy the way the profiler does.
        std::unordered_map<uint32_t, std::pair<uint64_t, uint64_t>> counts;
        for (const auto &rec : t.records) {
            if (rec.isBranch()) {
                auto &[taken, total] = counts[rec.pc];
                taken += rec.taken;
                ++total;
            }
        }
        double weighted = 0.0;
        uint64_t total_branches = 0;
        for (const auto &[pc, tc] : counts) {
            const double prob =
                static_cast<double>(tc.first) / static_cast<double>(tc.second);
            weighted += 2.0 * prob * (1.0 - prob) *
                static_cast<double>(tc.second);
            total_branches += tc.second;
        }
        const double entropy = weighted / static_cast<double>(total_branches);
        EXPECT_NEAR(entropy, target, 0.05) << "target " << target;
    }
}

TEST(Kernel, PrivateAddressesStayInRegion)
{
    KernelParams p;
    p.sharedFrac = 0.0;
    p.privateBytes = 1 << 20;
    const ThreadTrace t = runKernel(p, 50000);
    for (const auto &rec : t.records) {
        if (rec.isMem()) {
            EXPECT_GE(rec.addr, privateBase(0));
            EXPECT_LT(rec.addr, privateBase(0) + p.privateBytes);
        }
    }
}

TEST(Kernel, SharedFractionRespected)
{
    KernelParams p;
    p.sharedFrac = 0.4;
    p.reuseFrac = 0.0; // avoid hot-pool resampling skew
    const ThreadTrace t = runKernel(p, 100000);
    uint64_t shared = 0, total = 0;
    for (const auto &rec : t.records) {
        if (rec.isMem()) {
            ++total;
            shared += rec.addr >= kSharedBase;
        }
    }
    EXPECT_NEAR(static_cast<double>(shared) / total, 0.4, 0.03);
}

TEST(Kernel, WorkingSetBoundsUniqueLines)
{
    KernelParams p;
    p.sharedFrac = 0.0;
    p.privateBytes = 64 << 10; // 1024 lines
    p.randomFrac = 1.0;
    const ThreadTrace t = runKernel(p, 100000);
    std::set<uint64_t> lines;
    for (const auto &rec : t.records) {
        if (rec.isMem())
            lines.insert(rec.addr / 64);
    }
    EXPECT_LE(lines.size(), 1024u);
    EXPECT_GT(lines.size(), 500u); // random access should cover most
}

TEST(Kernel, CodeFootprintBoundsPcs)
{
    KernelParams p;
    p.codeFootprint = 256;
    const ThreadTrace t = runKernel(p, 10000);
    std::set<uint32_t> pcs;
    for (const auto &rec : t.records)
        pcs.insert(rec.pc);
    EXPECT_LE(pcs.size(), 256u);
}

TEST(Kernel, DependenceDistancesBounded)
{
    const ThreadTrace t = runKernel(KernelParams{}, 10000);
    for (size_t i = 0; i < t.records.size(); ++i) {
        EXPECT_LE(t.records[i].dep1, i);
        EXPECT_LE(t.records[i].dep2, i);
    }
}

// ------------------------------------------------------- synthesizeTrace ---

TEST(Workload, StructureValidates)
{
    WorkloadSpec spec;
    spec.numEpochs = 5;
    spec.opsPerEpoch = 1000;
    const ColumnarTrace trace = synthesizeTrace(spec);
    EXPECT_NO_THROW(trace.validateAndBarrierPopulations());
    EXPECT_EQ(trace.numThreads(), 4u);
}

TEST(Workload, Deterministic)
{
    WorkloadSpec spec;
    spec.numEpochs = 3;
    spec.opsPerEpoch = 2000;
    spec.csPerEpoch = 2;
    const ColumnarTrace a = synthesizeTrace(spec);
    const ColumnarTrace b = synthesizeTrace(spec);
    ASSERT_EQ(a.threads.size(), b.threads.size());
    EXPECT_TRUE(a == b);
}

TEST(Workload, BarrierCountMatchesSpec)
{
    WorkloadSpec spec;
    spec.numEpochs = 7;
    spec.numWorkers = 3;
    spec.mainWorks = true;
    const ColumnarTrace trace = synthesizeTrace(spec);
    // 4 participants x 7 epochs.
    EXPECT_EQ(trace.countSync(SyncType::BarrierWait), 28u);
}

TEST(Workload, CondVarFlavorEmitsMarkers)
{
    WorkloadSpec spec;
    spec.numEpochs = 4;
    spec.barrierFlavor = BarrierFlavor::CondVar;
    const ColumnarTrace trace = synthesizeTrace(spec);
    EXPECT_EQ(trace.countSync(SyncType::BarrierWait), 0u);
    EXPECT_EQ(trace.countSync(SyncType::CondBarrier), 16u);
    EXPECT_EQ(trace.countSync(SyncType::CondMarker), 16u);
}

TEST(Workload, CriticalSectionsBalanced)
{
    WorkloadSpec spec;
    spec.numEpochs = 3;
    spec.csPerEpoch = 5;
    const ColumnarTrace trace = synthesizeTrace(spec);
    EXPECT_EQ(trace.countSync(SyncType::MutexLock),
              trace.countSync(SyncType::MutexUnlock));
    EXPECT_EQ(trace.countSync(SyncType::MutexLock), 4u * 3u * 5u);
}

TEST(Workload, QueueItemsBalanced)
{
    WorkloadSpec spec;
    spec.numEpochs = 1;
    spec.queueItems = 17;
    spec.numWorkers = 3;
    const ColumnarTrace trace = synthesizeTrace(spec);
    EXPECT_EQ(trace.countSync(SyncType::QueuePush), 17u);
    EXPECT_EQ(trace.countSync(SyncType::QueuePop), 17u);
}

TEST(Workload, MainWorksFalseKeepsMainLight)
{
    WorkloadSpec spec;
    spec.mainWorks = false;
    spec.numWorkers = 4;
    spec.numEpochs = 4;
    spec.opsPerEpoch = 10000;
    spec.initOps = 1000;
    spec.finalOps = 100;
    spec.mainBookkeepingOps = 500;
    const ColumnarTrace trace = synthesizeTrace(spec);
    // Main: init + bookkeeping + final only.
    EXPECT_EQ(trace.threads[0].numOps(), 1600u);
    // Workers carry the epochs.
    EXPECT_GT(trace.threads[1].numOps(), 30000u);
}

TEST(Workload, ImbalanceSkewsThreads)
{
    WorkloadSpec spec;
    spec.imbalance = 0.8;
    spec.epochJitter = 0.0;
    spec.numEpochs = 4;
    spec.opsPerEpoch = 10000;
    spec.initOps = 0;
    spec.finalOps = 0;
    const ColumnarTrace trace = synthesizeTrace(spec);
    uint64_t min_ops = UINT64_MAX, max_ops = 0;
    for (const auto &t : trace.threads) {
        min_ops = std::min(min_ops, t.numOps());
        max_ops = std::max(max_ops, t.numOps());
    }
    EXPECT_GT(static_cast<double>(max_ops),
              1.3 * static_cast<double>(min_ops));
}

TEST(Workload, ApproxTotalOpsClose)
{
    WorkloadSpec spec;
    spec.numEpochs = 6;
    spec.opsPerEpoch = 5000;
    const ColumnarTrace trace = synthesizeTrace(spec);
    const double approx = static_cast<double>(spec.approxTotalOps());
    const double actual = static_cast<double>(trace.totalOps());
    EXPECT_NEAR(approx / actual, 1.0, 0.15);
}

TEST(Workload, BarrierLoopSpecShape)
{
    const WorkloadSpec spec = barrierLoopSpec(4, 10, 500);
    EXPECT_EQ(spec.numThreads(), 4u);
    EXPECT_EQ(spec.numEpochs, 10u);
    const ColumnarTrace trace = synthesizeTrace(spec);
    EXPECT_EQ(trace.countSync(SyncType::BarrierWait), 40u);
}

TEST(Workload, RejectsZeroWorkers)
{
    WorkloadSpec spec;
    spec.numWorkers = 0;
    EXPECT_THROW(synthesizeTrace(spec), std::invalid_argument);
    EXPECT_THROW(generateWorkload(spec), std::invalid_argument);
}

// ---------------------------------------------------------------- Suite ---

TEST(Suite, RodiniaHasSixteenBenchmarks)
{
    const auto suite = rodiniaSuite();
    EXPECT_EQ(suite.size(), 16u);
    for (const auto &entry : suite) {
        EXPECT_EQ(entry.suite, "rodinia");
        // Rodinia: main + 3 workers, all working, barrier synchronized.
        EXPECT_EQ(entry.spec.numThreads(), 4u);
        EXPECT_TRUE(entry.spec.mainWorks);
    }
}

TEST(Suite, ParsecHasTenBenchmarks)
{
    const auto suite = parsecSuite();
    EXPECT_EQ(suite.size(), 10u);
    for (const auto &entry : suite)
        EXPECT_EQ(entry.suite, "parsec");
}

TEST(Suite, AllBenchmarksGenerateValidTraces)
{
    for (const auto &entry : fullSuite()) {
        WorkloadSpec spec = entry.spec;
        // Shrink for test speed while preserving structure.
        spec.opsPerEpoch = std::max<uint64_t>(200, spec.opsPerEpoch / 50);
        spec.initOps /= 10;
        spec.queueItems = std::min<uint32_t>(spec.queueItems, 30);
        spec.numEpochs = std::min<uint32_t>(spec.numEpochs, 10);
        const ColumnarTrace trace = synthesizeTrace(spec);
        EXPECT_NO_THROW(trace.validateAndBarrierPopulations())
            << entry.spec.name;
        EXPECT_GT(trace.totalOps(), 0u) << entry.spec.name;
    }
}

TEST(Suite, FluidanimateIsCriticalSectionDominated)
{
    const auto entry = findBenchmark("Fluidanimate");
    ASSERT_TRUE(entry.has_value());
    EXPECT_GT(entry->spec.csPerEpoch, 50u);
}

TEST(Suite, StreamclusterParsecIsBarrierDominated)
{
    const auto entry = findBenchmark("Streamcluster");
    ASSERT_TRUE(entry.has_value());
    EXPECT_GT(entry->spec.numEpochs, 100u);
    EXPECT_EQ(entry->spec.barrierFlavor, BarrierFlavor::Classic);
}

TEST(Suite, JoinOnlyBenchmarksHaveNoBarriers)
{
    for (const char *name : {"Blackscholes", "Freqmine", "Swaptions"}) {
        const auto entry = findBenchmark(name);
        ASSERT_TRUE(entry.has_value()) << name;
        EXPECT_EQ(entry->spec.barrierFlavor, BarrierFlavor::None) << name;
        EXPECT_EQ(entry->spec.csPerEpoch, 0u) << name;
    }
}

TEST(Suite, FacesimUsesCondVarBarriers)
{
    const auto entry = findBenchmark("Facesim");
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->spec.barrierFlavor, BarrierFlavor::CondVar);
    EXPECT_TRUE(entry->spec.mainWorks);
}

TEST(Suite, FindBenchmarkMissReturnsNullopt)
{
    EXPECT_FALSE(findBenchmark("nonexistent").has_value());
}

TEST(Suite, NamesAreUnique)
{
    std::set<std::string> names;
    for (const auto &entry : fullSuite())
        EXPECT_TRUE(names.insert(entry.spec.name).second)
            << "duplicate " << entry.spec.name;
}

} // namespace
} // namespace rppm
