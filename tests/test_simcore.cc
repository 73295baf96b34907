/**
 * @file
 * Unit tests for src/simcore: the instruction-window-centric core timing
 * model, instantiated on stub memory and branch types so every timing
 * effect is isolated.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "simcore/core_model.hh"

namespace rppm {
namespace {

/** Fixed-latency memory stub. */
class StubMemory
{
  public:
    uint32_t loadLatency = 3;
    HitLevel level = HitLevel::L1;
    uint32_t fetchStall = 0;

    AccessResult
    dataAccess(uint64_t, bool, double)
    {
        AccessResult r;
        r.level = level;
        r.latency = loadLatency;
        return r;
    }

    uint32_t instrFetch(uint64_t) { return fetchStall; }
};

/** Branch stub with a fixed accuracy. */
class StubBranch
{
  public:
    bool alwaysCorrect = true;
    int mispredictEvery = 0; // 0 = never
    int count = 0;

    bool
    predictAndUpdate(uint64_t, bool)
    {
        ++count;
        if (mispredictEvery > 0 && count % mispredictEvery == 0)
            return false;
        return alwaysCorrect;
    }
};

/** The core model bound to the stubs. */
using StubCore = CoreModelT<StubMemory, StubBranch>;

CoreConfig
simpleCore(uint32_t width = 4, uint32_t rob = 64)
{
    CoreConfig cfg;
    cfg.dispatchWidth = width;
    cfg.robSize = rob;
    cfg.issueQueueSize = rob / 2;
    // Enough ALUs to sustain the dispatch width (the throughput tests
    // probe the front end, not FU contention).
    cfg.fus[static_cast<size_t>(OpClass::IntAlu)].count = width;
    return cfg;
}

TraceRecord
alu(uint16_t dep1 = 0)
{
    TraceRecord rec;
    rec.op = OpClass::IntAlu;
    rec.dep1 = dep1;
    return rec;
}

TEST(CoreModel, IndependentOpsReachDispatchWidth)
{
    StubMemory mem;
    StubBranch br;
    StubCore core(simpleCore(4), mem, br);
    const int n = 10000;
    for (int i = 0; i < n; ++i)
        core.execute(alu());
    const double ipc = n / core.now();
    EXPECT_NEAR(ipc, 4.0, 0.2);
}

TEST(CoreModel, SerialChainLimitedToOnePerLatency)
{
    StubMemory mem;
    StubBranch br;
    StubCore core(simpleCore(4), mem, br);
    const int n = 10000;
    for (int i = 0; i < n; ++i)
        core.execute(alu(1)); // every op depends on the previous one
    const double ipc = n / core.now();
    // IntAlu latency is 1 cycle: a serial chain runs at IPC ~1.
    EXPECT_NEAR(ipc, 1.0, 0.1);
}

TEST(CoreModel, LongLatencyChainScalesWithLatency)
{
    StubMemory mem;
    StubBranch br;
    StubCore core(simpleCore(4), mem, br);
    TraceRecord mul;
    mul.op = OpClass::IntMul; // latency 3
    mul.dep1 = 1;
    const int n = 3000;
    for (int i = 0; i < n; ++i)
        core.execute(mul);
    const double cpi = core.now() / n;
    EXPECT_NEAR(cpi, 3.0, 0.2);
}

TEST(CoreModel, WidthScalesThroughput)
{
    for (uint32_t width : {2u, 4u, 6u}) {
        StubMemory mem;
        StubBranch br;
        StubCore core(simpleCore(width, 288), mem, br);
        const int n = 8000;
        for (int i = 0; i < n; ++i)
            core.execute(alu());
        EXPECT_NEAR(n / core.now(), static_cast<double>(width),
                    0.1 * width);
    }
}

TEST(CoreModel, FuContentionLimitsDivides)
{
    StubMemory mem;
    StubBranch br;
    StubCore core(simpleCore(4), mem, br);
    TraceRecord div;
    div.op = OpClass::IntDiv; // 1 unit, issue interval 12
    const int n = 2000;
    for (int i = 0; i < n; ++i)
        core.execute(div);
    const double cpi = core.now() / n;
    EXPECT_NEAR(cpi, 12.0, 1.0); // throughput bound, not latency bound
}

TEST(CoreModel, RobStallsOnLongLoads)
{
    // A load missing to memory every ROB-th op forces a full stall: the
    // window cannot hide the latency beyond its size.
    StubMemory mem;
    mem.loadLatency = 200;
    mem.level = HitLevel::Memory;
    StubBranch br;
    const uint32_t rob = 32;
    StubCore core(simpleCore(4, rob), mem, br);
    const int loads = 50;
    for (int l = 0; l < loads; ++l) {
        TraceRecord ld;
        ld.op = OpClass::Load;
        ld.addr = 0x1000;
        core.execute(ld);
        for (uint32_t i = 0; i < rob; ++i)
            core.execute(alu());
    }
    // Each iteration costs at least the memory latency when the ROB
    // cannot cover it... the ALU work (32 ops / width 4 = 8 cycles) is
    // hidden under the 200-cycle load.
    const double per_iter = core.now() / loads;
    EXPECT_GT(per_iter, 150.0);
    EXPECT_LT(per_iter, 260.0);
}

TEST(CoreModel, IndependentMissesOverlap)
{
    // Back-to-back independent memory loads overlap: total time well
    // under loads x latency.
    StubMemory mem;
    mem.loadLatency = 200;
    mem.level = HitLevel::Memory;
    StubBranch br;
    StubCore core(simpleCore(4, 256), mem, br);
    const int n = 256;
    for (int i = 0; i < n; ++i) {
        TraceRecord ld;
        ld.op = OpClass::Load;
        core.execute(ld);
    }
    EXPECT_LT(core.now(), 0.25 * n * 200.0);
}

TEST(CoreModel, MshrsBoundOverlap)
{
    // With a single MSHR, misses serialize completely.
    StubMemory mem;
    mem.loadLatency = 100;
    mem.level = HitLevel::Memory;
    StubBranch br;
    CoreConfig cfg = simpleCore(4, 256);
    cfg.mshrs = 1;
    StubCore core(cfg, mem, br);
    const int n = 50;
    for (int i = 0; i < n; ++i) {
        TraceRecord ld;
        ld.op = OpClass::Load;
        core.execute(ld);
    }
    EXPECT_GT(core.now(), 0.9 * n * 100.0);
}

TEST(CoreModel, BranchMispredictionAddsPenalty)
{
    StubMemory mem;
    StubBranch good, bad;
    bad.mispredictEvery = 10;
    StubCore core_good(simpleCore(4), mem, good);
    StubCore core_bad(simpleCore(4), mem, bad);
    const int n = 5000;
    for (int i = 0; i < n; ++i) {
        TraceRecord rec;
        rec.op = OpClass::Branch;
        rec.taken = i % 3 == 0;
        core_good.execute(rec);
        core_bad.execute(rec);
    }
    EXPECT_GT(core_bad.now(), core_good.now() * 1.5);
    EXPECT_GT(core_bad.cpiStack()[CpiComponent::Branch], 0.0);
    EXPECT_DOUBLE_EQ(core_good.cpiStack()[CpiComponent::Branch], 0.0);
}

TEST(CoreModel, ICacheStallsAccumulate)
{
    StubMemory mem;
    mem.fetchStall = 10;
    StubBranch br;
    StubCore core(simpleCore(4), mem, br);
    for (int i = 0; i < 100; ++i)
        core.execute(alu());
    EXPECT_NEAR(core.cpiStack()[CpiComponent::ICache], 1000.0, 1.0);
    EXPECT_GT(core.now(), 1000.0);
}

TEST(CoreModel, IdleUntilAccountsSync)
{
    StubMemory mem;
    StubBranch br;
    StubCore core(simpleCore(4), mem, br);
    for (int i = 0; i < 100; ++i)
        core.execute(alu());
    const double before = core.now();
    core.idleUntil(before + 500.0);
    EXPECT_DOUBLE_EQ(core.now(), before + 500.0);
    EXPECT_DOUBLE_EQ(core.cpiStack()[CpiComponent::Sync], 500.0);
    EXPECT_NEAR(core.activeCycles(), before, 1e-9);
}

TEST(CoreModel, IdleUntilPastIsNoOp)
{
    StubMemory mem;
    StubBranch br;
    StubCore core(simpleCore(4), mem, br);
    for (int i = 0; i < 100; ++i)
        core.execute(alu());
    const double before = core.now();
    core.idleUntil(before - 10.0);
    EXPECT_DOUBLE_EQ(core.now(), before);
}

TEST(CoreModel, SyncOverheadAdvancesTime)
{
    StubMemory mem;
    StubBranch br;
    StubCore core(simpleCore(4), mem, br);
    core.syncOverhead(40.0);
    EXPECT_DOUBLE_EQ(core.now(), 40.0);
    EXPECT_DOUBLE_EQ(core.cpiStack()[CpiComponent::Base], 40.0);
}

TEST(CoreModel, CpiStackSumsToTotalTime)
{
    // L1-latency loads so branch penalties stand out on the critical
    // path (penalties overlapped by back-end stalls are, by design,
    // attributed to the stall's cause instead).
    StubMemory mem;
    mem.loadLatency = 8;
    mem.level = HitLevel::L2;
    StubBranch br;
    br.mispredictEvery = 20;
    StubCore core(simpleCore(4), mem, br);
    for (int i = 0; i < 5000; ++i) {
        TraceRecord rec;
        if (i % 5 == 0) {
            rec.op = OpClass::Load;
        } else if (i % 7 == 0) {
            rec.op = OpClass::Branch;
            rec.dep1 = 1; // resolves at the chain tip: penalty visible
        } else {
            rec.op = OpClass::IntAlu;
            rec.dep1 = 1;
        }
        core.execute(rec);
    }
    const CpiStack stack = core.cpiStack();
    // Base absorbs the remainder, so the stack total matches now().
    EXPECT_NEAR(stack.total(), core.now(), 1e-6);
    EXPECT_GT(stack[CpiComponent::MemL2], 0.0);
    EXPECT_GT(stack[CpiComponent::Branch], 0.0);
}

TEST(CoreModel, InstructionsCounted)
{
    StubMemory mem;
    StubBranch br;
    StubCore core(simpleCore(4), mem, br);
    for (int i = 0; i < 123; ++i)
        core.execute(alu());
    EXPECT_EQ(core.instructions(), 123u);
}

TEST(CoreModel, RobLargerThanHistoryRejected)
{
    StubMemory mem;
    StubBranch br;
    CoreConfig cfg = simpleCore(4, 4096);
    EXPECT_THROW(StubCore core(cfg, mem, br), std::invalid_argument);
}

/** Property sweep: IPC never exceeds dispatch width for any mix. */
class CoreIpcBoundTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>>
{
};

TEST_P(CoreIpcBoundTest, IpcBoundedByWidth)
{
    const auto [width, rob] = GetParam();
    StubMemory mem;
    StubBranch br;
    StubCore core(simpleCore(width, rob), mem, br);
    uint64_t seed = width * 1000 + rob;
    for (int i = 0; i < 5000; ++i) {
        seed = seed * 2862933555777941757ULL + 3037000493ULL;
        TraceRecord rec;
        switch ((seed >> 40) % 4) {
          case 0: rec.op = OpClass::Load; break;
          case 1: rec.op = OpClass::FpMul; break;
          default: rec.op = OpClass::IntAlu; break;
        }
        rec.dep1 = static_cast<uint16_t>((seed >> 20) % 8);
        core.execute(rec);
    }
    EXPECT_LE(5000.0 / core.now(),
              static_cast<double>(width) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    WidthRobSweep, CoreIpcBoundTest,
    ::testing::Combine(::testing::Values(2u, 3u, 4u, 5u, 6u),
                       ::testing::Values(32u, 128u, 288u)));

} // namespace
} // namespace rppm
