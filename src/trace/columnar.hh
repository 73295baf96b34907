/**
 * @file
 * Columnar (structure-of-arrays) trace representation: the one form a
 * trace takes from synthesis through the profiler, the simulator, the
 * RPPMTRC file format and the daemon.
 *
 * The profiler, the hottest loop in the repository, streams through
 * billions of records touching only a couple of fields per record kind.
 * ColumnarTrace stores each field as its own column, and the fields
 * that only exist for a subset of records are stored *sparsely*:
 *
 *   dense  (one entry per record):  op, pc, dep1, dep2
 *   sparse (one entry per subset):  addr  (memory records, in order)
 *                                   taken (branch records, in order)
 *                                   syncPos/syncType/syncArg (sync records)
 *
 * Sync record slots carry neutral dense values (IntAlu, pc 0, deps 0);
 * whether record i is a sync event is answered by syncPos, which also
 * lets a sequential consumer process the run of micro-ops up to the next
 * sync event without any per-record branching. A typical record costs
 * ~9 bytes here versus 24 in the AoS TraceRecord, and structural
 * validation plus barrier-population discovery read only the sparse
 * sync columns instead of re-walking the whole trace.
 *
 * Records are appended through ThreadTraceBuilder (trace_builder.hh),
 * the one place that encodes a record into columns. ColumnCursor
 * provides the sequential view (the only access pattern the profiler
 * needs); toWorkload()/fromWorkload() convert to and from the AoS form
 * losslessly, for tests that assert on individual records.
 */

#ifndef RPPM_TRACE_COLUMNAR_HH
#define RPPM_TRACE_COLUMNAR_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/column.hh"
#include "common/mmap.hh"
#include "trace/trace.hh"

namespace rppm {

/**
 * One thread's trace as per-field columns (see file comment).
 *
 * Each column is a Column<T> (common/column.hh): the read API of a const
 * vector, but the storage may be *borrowed* from an mmap'd RPPMTRC image
 * instead of owned — loadTraceViewFromFile() builds such zero-copy
 * traces. The enclosing ColumnarTrace keeps the backing file image alive.
 */
struct ThreadColumns
{
    // --- Dense columns, one entry per record.
    Column<OpClass> op;    ///< sync slots hold OpClass::IntAlu
    Column<uint32_t> pc;   ///< sync slots hold 0
    Column<uint16_t> dep1; ///< sync slots hold 0
    Column<uint16_t> dep2; ///< sync slots hold 0

    // --- Sparse columns.
    Column<uint64_t> addr;     ///< per memory record, in record order
    Column<uint8_t> taken;     ///< per branch record, 0/1
    Column<uint64_t> syncPos;  ///< record index of each sync record
    Column<SyncType> syncType; ///< parallel to syncPos
    Column<uint32_t> syncArg;  ///< parallel to syncPos

    size_t numRecords() const { return op.size(); }

    /** Micro-ops (sync records excluded). */
    uint64_t
    numOps() const
    {
        return static_cast<uint64_t>(op.size() - syncPos.size());
    }

    bool operator==(const ThreadColumns &) const = default;
};

/** Sequential reader over one thread's columns. */
class ColumnCursor
{
  public:
    explicit ColumnCursor(const ThreadColumns &cols) : cols_(&cols) {}

    /** Next record index to be consumed. */
    size_t index() const { return i_; }

    bool atEnd() const { return i_ >= cols_->numRecords(); }

    /** Record index of the next sync record at or after index(), or
     *  numRecords() when none remain. */
    size_t
    nextSyncPos() const
    {
        return syncIdx_ < cols_->syncPos.size() ?
            static_cast<size_t>(cols_->syncPos[syncIdx_]) :
            cols_->numRecords();
    }

    /** True when the record at index() is a sync event. */
    bool atSync() const { return i_ == nextSyncPos(); }

    // --- Micro-op fields at index() (only valid when !atSync()).
    OpClass op() const { return cols_->op[i_]; }
    uint32_t pc() const { return cols_->pc[i_]; }
    uint16_t dep1() const { return cols_->dep1[i_]; }
    uint16_t dep2() const { return cols_->dep2[i_]; }
    /** Memory address; only valid when op() is Load/Store. */
    uint64_t addr() const { return cols_->addr[memIdx_]; }
    /** Branch outcome; only valid when op() is Branch. */
    bool taken() const { return cols_->taken[brIdx_] != 0; }

    // --- Sync fields at index() (only valid when atSync()).
    SyncType syncType() const { return cols_->syncType[syncIdx_]; }
    uint32_t syncArg() const { return cols_->syncArg[syncIdx_]; }

    /**
     * Address of the @p k-th memory record at or after index(), or 0
     * when fewer remain. Lookahead for software prefetch: the sparse
     * addr column lists upcoming data addresses contiguously, something
     * the AoS record stream cannot offer without scanning.
     */
    uint64_t
    peekAddr(size_t k) const
    {
        const size_t j = memIdx_ + k;
        return j < cols_->addr.size() ? cols_->addr[j] : 0;
    }

    /** Advance past the current record, maintaining the sparse cursors. */
    void
    advance()
    {
        if (atSync()) {
            ++syncIdx_;
        } else {
            const OpClass cls = cols_->op[i_];
            if (isMemory(cls))
                ++memIdx_;
            else if (cls == OpClass::Branch)
                ++brIdx_;
        }
        ++i_;
    }

  private:
    const ThreadColumns *cols_;
    size_t i_ = 0;
    size_t memIdx_ = 0;
    size_t brIdx_ = 0;
    size_t syncIdx_ = 0;
};

/**
 * A complete multi-threaded workload trace in columnar form.
 *
 * Thread 0 is the main thread (exists at program start); all other
 * threads must be started by a ThreadCreate record and are typically
 * joined before the main thread finishes. The region of interest is the
 * whole trace.
 */
struct ColumnarTrace
{
    std::string name;
    std::vector<ThreadColumns> threads;

    /**
     * Backing storage for borrowed columns. loadTraceViewFromFile()
     * points the thread columns into this mmap'd image; it must outlive
     * them, so it rides along inside the trace (copies share it).
     * Null for fully-owned traces.
     */
    std::shared_ptr<const MappedFile> storage;

    size_t numThreads() const { return threads.size(); }

    /**
     * True when any column borrows storage it does not own (i.e. the
     * trace is a zero-copy view over an mmap'd file). Borrowed traces
     * are immutable; consumers that need to mutate must deep-copy via
     * toOwned().
     */
    bool isBorrowed() const;

    /** Deep copy with every column in owned (vector) storage. */
    ColumnarTrace toOwned() const;

    /** Total micro-ops across all threads. */
    uint64_t totalOps() const;

    /** Count of dynamic sync events of @p type across all threads. */
    uint64_t countSync(SyncType type) const;

    /** Lossless conversion from the AoS form, on up to @p jobs worker
     *  threads (0 = all hardware threads), one task per trace thread;
     *  the columns are identical for every job count. */
    static ColumnarTrace fromWorkload(const WorkloadTrace &trace,
                                      unsigned jobs = 1);

    /** Lossless conversion back to the AoS form. */
    WorkloadTrace toWorkload() const;

    /**
     * Validate the structural invariants (every sync type is an event
     * type, never None or out of range; no thread is created more
     * than once, and every non-main thread with records is created
     * exactly once, by ThreadCreate in some thread; created threads are
     * joined at most once; mutex lock/unlock pairs
     * are balanced per thread) and return the barrier populations, in
     * one sweep over the *sparse sync columns only* — O(sync events),
     * not O(records). Throws std::invalid_argument on violation.
     */
    std::unordered_map<uint32_t, uint32_t> validateAndBarrierPopulations()
        const;

    /**
     * Cross-check that the dense and sparse columns are mutually
     * consistent (equal dense lengths; sync positions strictly ascending,
     * in range and carrying neutral dense values; addr/taken lengths
     * matching the memory-op/branch counts; op classes and branch
     * outcomes in range; sync types are left to
     * validateAndBarrierPopulations()). Sequential
     * consumers index the sparse columns blindly, so this must hold
     * before a hand-assembled or deserialized trace is walked. Throws
     * std::invalid_argument on violation. O(records), but touches only
     * the 1-byte op column and the sparse sync columns.
     *
     * Success is cached: repeated calls on the same trace (the simulator
     * dispatcher validates on every simulate() call) are O(1) after the
     * first pass. The cache lives behind a shared handle, so copies of a
     * validated trace — the Study framework and the profile cache pass
     * traces by value — inherit the cached success instead of re-walking
     * the op column per copy. Mutating `threads` after a successful
     * validation is not detected.
     */
    void validateColumnConsistency() const;

    /** Columns compare by content; the validation cache is ignored. */
    bool
    operator==(const ColumnarTrace &o) const
    {
        return threads == o.threads;
    }

  private:
    /** Shared across copies (see validateColumnConsistency); atomic so
     *  concurrent first validations of the same trace are a benign race
     *  instead of a data race. */
    std::shared_ptr<std::atomic<bool>> columnsValidated_ =
        std::make_shared<std::atomic<bool>>(false);
};

/**
 * Read-only view of one thread's sparse sync columns plus its record
 * count: everything the schedule (sim/round_robin.hh), the structural
 * validation and the profiler's sweeps read of the sync events. A file
 * source builds one over its resident sync columns without
 * materializing a ColumnarTrace.
 */
struct SyncView
{
    const uint64_t *pos = nullptr;
    const SyncType *type = nullptr;
    const uint32_t *arg = nullptr;
    size_t count = 0;
    size_t numRecords = 0; ///< sentinel when no sync events remain

    /** Record index of sync event @p syncIdx, or numRecords past the
     *  last one. */
    size_t
    next(size_t syncIdx) const
    {
        return syncIdx < count ? static_cast<size_t>(pos[syncIdx]) :
                                 numRecords;
    }
};

/** The sync view of @p cols. */
inline SyncView
syncView(const ThreadColumns &cols)
{
    return SyncView{cols.syncPos.data(), cols.syncType.data(),
                    cols.syncArg.data(), cols.syncPos.size(),
                    cols.numRecords()};
}

/** One sync view per thread of @p trace. */
inline std::vector<SyncView>
syncViews(const ColumnarTrace &trace)
{
    std::vector<SyncView> views;
    views.reserve(trace.numThreads());
    for (const ThreadColumns &cols : trace.threads)
        views.push_back(syncView(cols));
    return views;
}

/**
 * The body of ColumnarTrace::validateAndBarrierPopulations() over sync
 * views: lets the out-of-core streaming profiler validate a
 * trace file and size its barriers from the resident sync columns alone,
 * without materializing a ColumnarTrace. Throws std::invalid_argument on
 * violation.
 */
std::unordered_map<uint32_t, uint32_t>
validateSyncAndBarrierPopulations(const std::vector<SyncView> &threads);

} // namespace rppm

#endif // RPPM_TRACE_COLUMNAR_HH
