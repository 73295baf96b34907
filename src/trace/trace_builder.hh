/**
 * @file
 * The one encoder of trace records into columns.
 *
 * Workload synthesis (src/workload), hand-written test and example
 * traces, and the AoS conversion ColumnarTrace::fromWorkload() all
 * append records through ThreadTraceBuilder, so the columnar layout
 * (trace/columnar.hh: neutral dense values in sync slots, sparse
 * addr/taken/sync columns) is produced in exactly one place.
 */

#ifndef RPPM_TRACE_TRACE_BUILDER_HH
#define RPPM_TRACE_TRACE_BUILDER_HH

#include <cstddef>
#include <cstdint>

#include "trace/columnar.hh"
#include "trace/trace.hh"

namespace rppm {

/**
 * Appends records to one thread's columns.
 *
 * The builder is deliberately low level: the workload kernels in
 * src/workload compose richer patterns on top of it.
 */
class ThreadTraceBuilder
{
  public:
    explicit ThreadTraceBuilder(ThreadColumns &cols) : cols_(cols) {}

    /** Append a non-memory, non-branch op. */
    void
    op(OpClass cls, uint32_t pc, uint16_t dep1 = 0, uint16_t dep2 = 0)
    {
        record({.pc = pc, .dep1 = dep1, .dep2 = dep2, .op = cls});
    }

    /** Append a load from @p addr. */
    void
    load(uint64_t addr, uint32_t pc, uint16_t dep1 = 0, uint16_t dep2 = 0)
    {
        record({.addr = addr, .pc = pc, .dep1 = dep1, .dep2 = dep2,
                .op = OpClass::Load});
    }

    /** Append a store to @p addr. */
    void
    store(uint64_t addr, uint32_t pc, uint16_t dep1 = 0, uint16_t dep2 = 0)
    {
        record({.addr = addr, .pc = pc, .dep1 = dep1, .dep2 = dep2,
                .op = OpClass::Store});
    }

    /** Append a conditional branch with outcome @p taken. */
    void
    branch(uint32_t pc, bool taken, uint16_t dep1 = 0)
    {
        record({.pc = pc, .dep1 = dep1, .op = OpClass::Branch,
                .taken = taken});
    }

    /** Append a sync event. */
    void
    sync(SyncType type, uint32_t arg)
    {
        record({.syncArg = arg, .sync = type});
    }

    /** Append @p rec, a micro-op or a sync event. */
    void record(const TraceRecord &rec);

    /** Number of records appended so far (including sync records). */
    size_t size() const { return cols_.numRecords(); }

    /** Number of micro-ops appended so far. */
    uint64_t numOps() const { return cols_.numOps(); }

  private:
    ThreadColumns &cols_;
};

} // namespace rppm

#endif // RPPM_TRACE_TRACE_BUILDER_HH
