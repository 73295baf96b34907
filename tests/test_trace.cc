/**
 * @file
 * Unit tests for src/trace: record semantics, the builder's encoding of
 * records into columns and trace-level structural validation.
 */

#include <gtest/gtest.h>

#include "trace/columnar.hh"
#include "trace/trace.hh"
#include "trace/trace_builder.hh"

namespace rppm {
namespace {

TEST(TraceRecord, Predicates)
{
    TraceRecord op;
    op.op = OpClass::Load;
    EXPECT_TRUE(op.isMem());
    EXPECT_FALSE(op.isSync());
    EXPECT_FALSE(op.isBranch());

    TraceRecord br;
    br.op = OpClass::Branch;
    EXPECT_TRUE(br.isBranch());
    EXPECT_FALSE(br.isMem());

    TraceRecord sync;
    sync.sync = SyncType::BarrierWait;
    sync.op = OpClass::Load; // op class is ignored for sync records
    EXPECT_TRUE(sync.isSync());
    EXPECT_FALSE(sync.isMem());
    EXPECT_FALSE(sync.isBranch());
}

TEST(TraceRecord, OpClassNames)
{
    EXPECT_STREQ(opClassName(OpClass::Load), "Load");
    EXPECT_STREQ(opClassName(OpClass::Branch), "Branch");
    EXPECT_STREQ(opClassName(OpClass::FpDiv), "FpDiv");
}

TEST(TraceRecord, SyncTypeNames)
{
    EXPECT_STREQ(syncTypeName(SyncType::BarrierWait), "BarrierWait");
    EXPECT_STREQ(syncTypeName(SyncType::CondMarker), "CondMarker");
    EXPECT_STREQ(syncTypeName(SyncType::None), "None");
}

TEST(TraceBuilder, CountsOpsNotSyncs)
{
    ThreadColumns cols;
    ThreadTraceBuilder b(cols);
    b.op(OpClass::IntAlu, 0x40);
    b.load(0x1000, 0x44);
    b.sync(SyncType::BarrierWait, 1);
    b.store(0x2000, 0x48);
    b.branch(0x4c, true);
    EXPECT_EQ(b.numOps(), 4u);
    EXPECT_EQ(b.size(), 5u);
    EXPECT_EQ(cols.numOps(), 4u);
}

TEST(TraceBuilder, RecordFieldsPreserved)
{
    ThreadColumns cols;
    ThreadTraceBuilder b(cols);
    b.load(0xdeadbeef, 0x400, 3, 7);
    ASSERT_EQ(cols.addr.size(), 1u);
    EXPECT_EQ(cols.addr[0], 0xdeadbeefu);
    EXPECT_EQ(cols.pc[0], 0x400u);
    EXPECT_EQ(cols.dep1[0], 3u);
    EXPECT_EQ(cols.dep2[0], 7u);
    EXPECT_EQ(cols.op[0], OpClass::Load);
}

TEST(TraceBuilder, SyncSlotsCarryNeutralDenseValues)
{
    ThreadColumns cols;
    ThreadTraceBuilder b(cols);
    b.branch(0x10, true, 1);
    TraceRecord sync;
    sync.sync = SyncType::MutexLock;
    sync.syncArg = 9;
    sync.op = OpClass::Load; // ignored for sync records
    sync.pc = 0x20;
    sync.dep1 = 5;
    b.record(sync);
    ASSERT_EQ(cols.numRecords(), 2u);
    EXPECT_EQ(cols.op[1], OpClass::IntAlu);
    EXPECT_EQ(cols.pc[1], 0u);
    EXPECT_EQ(cols.dep1[1], 0u);
    EXPECT_EQ(cols.dep2[1], 0u);
    ASSERT_EQ(cols.syncPos.size(), 1u);
    EXPECT_EQ(cols.syncPos[0], 1u);
    EXPECT_EQ(cols.syncType[0], SyncType::MutexLock);
    EXPECT_EQ(cols.syncArg[0], 9u);
    ASSERT_EQ(cols.taken.size(), 1u);
    EXPECT_EQ(cols.taken[0], 1u);
    EXPECT_TRUE(cols.addr.empty());
}

TEST(ColumnarTrace, CountSync)
{
    ColumnarTrace trace;
    trace.threads.resize(2);
    ThreadTraceBuilder main(trace.threads[0]);
    main.sync(SyncType::ThreadCreate, 1);
    main.sync(SyncType::BarrierWait, 5);
    main.sync(SyncType::ThreadJoin, 1);
    ThreadTraceBuilder worker(trace.threads[1]);
    worker.sync(SyncType::BarrierWait, 5);
    EXPECT_EQ(trace.countSync(SyncType::BarrierWait), 2u);
    EXPECT_EQ(trace.countSync(SyncType::ThreadCreate), 1u);
    EXPECT_EQ(trace.countSync(SyncType::MutexLock), 0u);
}

TEST(ColumnarTrace, ValidateAcceptsWellFormed)
{
    ColumnarTrace trace;
    trace.threads.resize(2);
    ThreadTraceBuilder main(trace.threads[0]);
    main.op(OpClass::IntAlu, 0);
    main.sync(SyncType::ThreadCreate, 1);
    main.sync(SyncType::ThreadJoin, 1);
    ThreadTraceBuilder worker(trace.threads[1]);
    worker.sync(SyncType::MutexLock, 9);
    worker.op(OpClass::IntAlu, 4);
    worker.sync(SyncType::MutexUnlock, 9);
    EXPECT_NO_THROW(trace.validateAndBarrierPopulations());
}

TEST(ColumnarTrace, ValidateRejectsUncreatedThread)
{
    ColumnarTrace trace;
    trace.threads.resize(2);
    ThreadTraceBuilder worker(trace.threads[1]);
    worker.op(OpClass::IntAlu, 0);
    EXPECT_THROW(trace.validateAndBarrierPopulations(),
                 std::invalid_argument);
}

TEST(ColumnarTrace, ValidateRejectsUnbalancedMutex)
{
    ColumnarTrace trace;
    trace.threads.resize(1);
    ThreadTraceBuilder main(trace.threads[0]);
    main.sync(SyncType::MutexLock, 1);
    EXPECT_THROW(trace.validateAndBarrierPopulations(),
                 std::invalid_argument);
}

TEST(ColumnarTrace, ValidateRejectsUnlockWithoutLock)
{
    ColumnarTrace trace;
    trace.threads.resize(1);
    ThreadTraceBuilder main(trace.threads[0]);
    main.sync(SyncType::MutexUnlock, 1);
    EXPECT_THROW(trace.validateAndBarrierPopulations(),
                 std::invalid_argument);
}

TEST(ColumnarTrace, ValidateRejectsRecursiveLock)
{
    ColumnarTrace trace;
    trace.threads.resize(1);
    ThreadTraceBuilder main(trace.threads[0]);
    main.sync(SyncType::MutexLock, 1);
    main.sync(SyncType::MutexLock, 1);
    main.sync(SyncType::MutexUnlock, 1);
    main.sync(SyncType::MutexUnlock, 1);
    EXPECT_THROW(trace.validateAndBarrierPopulations(),
                 std::invalid_argument);
}

TEST(ColumnarTrace, ValidateRejectsDoubleJoin)
{
    ColumnarTrace trace;
    trace.threads.resize(2);
    ThreadTraceBuilder main(trace.threads[0]);
    main.sync(SyncType::ThreadCreate, 1);
    main.sync(SyncType::ThreadJoin, 1);
    main.sync(SyncType::ThreadJoin, 1);
    ThreadTraceBuilder worker(trace.threads[1]);
    worker.op(OpClass::IntAlu, 0);
    EXPECT_THROW(trace.validateAndBarrierPopulations(),
                 std::invalid_argument);
}

TEST(ColumnarTrace, ValidateRejectsDoubleCreateOfEmptyThread)
{
    // A thread with no records need not be created, but a second create
    // would find it already running (the simulator's and sync model's
    // SyncState asserts on that).
    ColumnarTrace trace;
    trace.threads.resize(2);
    ThreadTraceBuilder main(trace.threads[0]);
    main.sync(SyncType::ThreadCreate, 1);
    main.sync(SyncType::ThreadCreate, 1);
    EXPECT_THROW(trace.validateAndBarrierPopulations(),
                 std::invalid_argument);
}

TEST(ColumnarTrace, ValidateRejectsEmpty)
{
    ColumnarTrace trace;
    EXPECT_THROW(trace.validateAndBarrierPopulations(),
                 std::invalid_argument);
}

TEST(ColumnarTrace, TotalOpsSumsThreads)
{
    ColumnarTrace trace;
    trace.threads.resize(2);
    ThreadTraceBuilder main(trace.threads[0]);
    main.op(OpClass::IntAlu, 0);
    main.op(OpClass::IntAlu, 4);
    main.sync(SyncType::ThreadCreate, 1);
    ThreadTraceBuilder worker(trace.threads[1]);
    worker.op(OpClass::IntAlu, 8);
    EXPECT_EQ(trace.totalOps(), 3u);
}

} // namespace
} // namespace rppm
