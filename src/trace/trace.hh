/**
 * @file
 * Micro-op trace vocabulary: op classes, sync event types and the
 * record a trace is made of.
 *
 * A workload is a set of per-thread record streams. A record is either
 * a micro-op (with op class, PC, dependence distances and, for memory
 * ops, an address) or a synchronization event. Traces are the common
 * substrate of the whole repository: the multicore simulator executes
 * them with timing, and the RPPM profiler observes them to build
 * microarchitecture-independent profiles — exactly the role the dynamic
 * instruction stream plays for Pin in the paper.
 *
 * Every consumer reads the columnar form (trace/columnar.hh), and
 * records are encoded into it by ThreadTraceBuilder
 * (trace/trace_builder.hh). TraceRecord is the builder's argument; the
 * AoS containers ThreadTrace and WorkloadTrace below exist only as the
 * lossless record-by-record view ColumnarTrace::toWorkload() returns,
 * for tests that assert on individual records.
 */

#ifndef RPPM_TRACE_TRACE_HH
#define RPPM_TRACE_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace rppm {

/** Functional classes of micro-ops; latencies are per-class (arch config). */
enum class OpClass : uint8_t
{
    IntAlu,
    IntMul,
    IntDiv,
    FpAdd,
    FpMul,
    FpDiv,
    Load,
    Store,
    Branch,
    NumClasses,
};

/** Number of OpClass values. */
constexpr size_t kNumOpClasses = static_cast<size_t>(OpClass::NumClasses);

/** Human-readable op class name. */
const char *opClassName(OpClass cls);

/** True for Load/Store. */
inline bool
isMemory(OpClass cls)
{
    return cls == OpClass::Load || cls == OpClass::Store;
}

/**
 * Synchronization event types.
 *
 * The simulator gives these their dynamic semantics (who blocks depends on
 * runtime arrival order); the profiler records them as the workload's
 * synchronization profile. CondMarker corresponds to the paper's manual
 * source markers: it flags a point where a thread *could* wait on a
 * condition variable regardless of whether it actually waits at runtime.
 */
enum class SyncType : uint8_t
{
    None,
    ThreadCreate,   ///< arg = created thread id
    ThreadJoin,     ///< arg = joined thread id
    BarrierWait,    ///< arg = barrier id (classic pthread/OpenMP barrier)
    MutexLock,      ///< arg = mutex id
    MutexUnlock,    ///< arg = mutex id
    CondBarrier,    ///< arg = condvar id; condvar-implemented barrier arrive
    QueuePush,      ///< arg = queue id; producer side of a condvar queue
    QueuePop,       ///< arg = queue id; consumer side (blocks when empty)
    CondMarker,     ///< arg = condvar id; "possible wait" source marker
    NumTypes,
};

/** Human-readable sync type name. */
const char *syncTypeName(SyncType type);

/**
 * One trace record: a micro-op or a sync event.
 *
 * Dependence distances are in micro-ops (0 = no dependence): dep1/dep2 name
 * the producers of this op's source operands as backward distances within
 * the same thread's stream. PC identifies the static instruction for branch
 * prediction and I-cache behaviour; addr is the byte address for memory ops.
 */
struct TraceRecord
{
    uint64_t addr = 0;      ///< memory byte address (Load/Store only)
    uint32_t pc = 0;        ///< static instruction id (byte address)
    uint32_t syncArg = 0;   ///< sync object id / thread id
    uint16_t dep1 = 0;      ///< backward distance to first producer (0=none)
    uint16_t dep2 = 0;      ///< backward distance to second producer
    OpClass op = OpClass::IntAlu;
    SyncType sync = SyncType::None;
    bool taken = false;     ///< branch outcome (Branch only)

    bool isSync() const { return sync != SyncType::None; }
    bool isMem() const { return !isSync() && isMemory(op); }
    bool isBranch() const { return !isSync() && op == OpClass::Branch; }
};

/** A single thread's dynamic stream, record by record. */
struct ThreadTrace
{
    std::vector<TraceRecord> records;
};

/** A multi-threaded trace, record by record (see file comment). */
struct WorkloadTrace
{
    std::string name;
    std::vector<ThreadTrace> threads;

    size_t numThreads() const { return threads.size(); }
};

} // namespace rppm

#endif // RPPM_TRACE_TRACE_HH
