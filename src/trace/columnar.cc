#include "trace/columnar.hh"

#include <map>

#include "common/assert.hh"
#include "common/parallel.hh"
#include "trace/trace_builder.hh"

namespace rppm {

namespace {

template <typename T>
std::vector<T>
copyOut(const Column<T> &col)
{
    return std::vector<T>(col.begin(), col.end());
}

} // namespace

bool
ColumnarTrace::isBorrowed() const
{
    for (const ThreadColumns &t : threads) {
        if (t.op.isBorrowed() || t.pc.isBorrowed() ||
            t.dep1.isBorrowed() || t.dep2.isBorrowed() ||
            t.addr.isBorrowed() || t.taken.isBorrowed() ||
            t.syncPos.isBorrowed() || t.syncType.isBorrowed() ||
            t.syncArg.isBorrowed()) {
            return true;
        }
    }
    return false;
}

ColumnarTrace
ColumnarTrace::toOwned() const
{
    ColumnarTrace out;
    out.name = name;
    out.threads.resize(threads.size());
    for (size_t t = 0; t < threads.size(); ++t) {
        const ThreadColumns &src = threads[t];
        ThreadColumns &dst = out.threads[t];
        dst.op = copyOut(src.op);
        dst.pc = copyOut(src.pc);
        dst.dep1 = copyOut(src.dep1);
        dst.dep2 = copyOut(src.dep2);
        dst.addr = copyOut(src.addr);
        dst.taken = copyOut(src.taken);
        dst.syncPos = copyOut(src.syncPos);
        dst.syncType = copyOut(src.syncType);
        dst.syncArg = copyOut(src.syncArg);
    }
    return out;
}

uint64_t
ColumnarTrace::totalOps() const
{
    uint64_t n = 0;
    for (const ThreadColumns &t : threads)
        n += t.numOps();
    return n;
}

uint64_t
ColumnarTrace::countSync(SyncType type) const
{
    uint64_t n = 0;
    for (const ThreadColumns &t : threads) {
        for (SyncType s : t.syncType) {
            if (s == type)
                ++n;
        }
    }
    return n;
}

ColumnarTrace
ColumnarTrace::fromWorkload(const WorkloadTrace &trace, unsigned jobs)
{
    ColumnarTrace out;
    out.name = trace.name;
    out.threads.resize(trace.threads.size());
    // Each thread's columns derive only from its own record stream, so
    // conversion fans out one task per thread; the output is identical
    // for every job count.
    ParallelExecutor pool(jobs);
    pool.forEach(trace.threads.size(), [&](size_t tid) {
        ThreadTraceBuilder builder(out.threads[tid]);
        for (const TraceRecord &rec : trace.threads[tid].records)
            builder.record(rec);
    });
    return out;
}

WorkloadTrace
ColumnarTrace::toWorkload() const
{
    WorkloadTrace out;
    out.name = name;
    out.threads.resize(threads.size());
    for (size_t tid = 0; tid < threads.size(); ++tid) {
        ColumnCursor cur(threads[tid]);
        auto &records = out.threads[tid].records;
        records.reserve(threads[tid].numRecords());
        while (!cur.atEnd()) {
            TraceRecord rec;
            if (cur.atSync()) {
                rec.sync = cur.syncType();
                rec.syncArg = cur.syncArg();
            } else {
                rec.op = cur.op();
                rec.pc = cur.pc();
                rec.dep1 = cur.dep1();
                rec.dep2 = cur.dep2();
                if (isMemory(rec.op))
                    rec.addr = cur.addr();
                else if (rec.op == OpClass::Branch)
                    rec.taken = cur.taken();
            }
            records.push_back(rec);
            cur.advance();
        }
    }
    return out;
}

void
ColumnarTrace::validateColumnConsistency() const
{
    if (columnsValidated_->load(std::memory_order_acquire))
        return;
    for (const ThreadColumns &cols : threads) {
        const size_t records = cols.op.size();
        RPPM_REQUIRE(cols.pc.size() == records &&
                         cols.dep1.size() == records &&
                         cols.dep2.size() == records,
                     "dense column lengths disagree");
        RPPM_REQUIRE(cols.syncType.size() == cols.syncPos.size() &&
                         cols.syncArg.size() == cols.syncPos.size(),
                     "sync column lengths disagree");

        size_t mems = 0, branches = 0, syncIdx = 0;
        for (size_t i = 0; i < records; ++i) {
            const bool is_sync = syncIdx < cols.syncPos.size() &&
                cols.syncPos[syncIdx] == i;
            if (is_sync) {
                RPPM_REQUIRE(cols.op[i] == OpClass::IntAlu &&
                                 cols.pc[i] == 0 && cols.dep1[i] == 0 &&
                                 cols.dep2[i] == 0,
                             "sync slot carries micro-op data");
                ++syncIdx;
                continue;
            }
            const auto op = static_cast<uint8_t>(cols.op[i]);
            RPPM_REQUIRE(op < static_cast<uint8_t>(OpClass::NumClasses),
                         "op class out of range");
            if (isMemory(cols.op[i]))
                ++mems;
            else if (cols.op[i] == OpClass::Branch)
                ++branches;
        }
        // Positions are matched in ascending record order, so any
        // duplicate, descending or out-of-range entry leaves syncIdx
        // short of the column length.
        RPPM_REQUIRE(syncIdx == cols.syncPos.size(),
                     "sync positions not ascending record indices");
        RPPM_REQUIRE(cols.addr.size() == mems,
                     "addr column length does not match memory op count");
        RPPM_REQUIRE(cols.taken.size() == branches,
                     "taken column length does not match branch count");
        for (uint8_t t : cols.taken)
            RPPM_REQUIRE(t <= 1, "branch outcome out of range");
    }
    columnsValidated_->store(true, std::memory_order_release);
}

std::unordered_map<uint32_t, uint32_t>
ColumnarTrace::validateAndBarrierPopulations() const
{
    return validateSyncAndBarrierPopulations(syncViews(*this));
}

std::unordered_map<uint32_t, uint32_t>
validateSyncAndBarrierPopulations(const std::vector<SyncView> &threads)
{
    // One sweep over the sparse sync columns replaces two full passes
    // over the AoS records (validation plus a barrier-population scan):
    // structural invariants and barrier sizing only ever depend on the
    // sync events.
    RPPM_REQUIRE(!threads.empty(), "workload has no threads");

    std::vector<int> created(threads.size(), 0);
    std::vector<int> joined(threads.size(), 0);
    created[0] = 1; // main thread exists at startup

    // Barrier id -> bitmask-free set of referencing threads, kept as a
    // sorted map only long enough to count distinct users.
    std::unordered_map<uint32_t, std::vector<bool>> users;

    for (size_t tid = 0; tid < threads.size(); ++tid) {
        const SyncView &cols = threads[tid];
        std::map<uint32_t, int> lock_depth;
        for (size_t k = 0; k < cols.count; ++k) {
            const SyncType type = cols.type[k];
            const uint32_t arg = cols.arg[k];
            switch (type) {
              case SyncType::ThreadCreate:
                RPPM_REQUIRE(arg < threads.size(),
                             "create of unknown thread");
                RPPM_REQUIRE(arg != 0, "cannot create main thread");
                ++created[arg];
                break;
              case SyncType::ThreadJoin:
                RPPM_REQUIRE(arg < threads.size(), "join of unknown thread");
                ++joined[arg];
                break;
              case SyncType::MutexLock:
                ++lock_depth[arg];
                RPPM_REQUIRE(lock_depth[arg] == 1, "recursive mutex lock");
                break;
              case SyncType::MutexUnlock:
                --lock_depth[arg];
                RPPM_REQUIRE(lock_depth[arg] == 0,
                             "unlock of unheld mutex");
                break;
              case SyncType::BarrierWait:
              case SyncType::CondBarrier: {
                auto &tids = users[arg];
                if (tids.size() < threads.size())
                    tids.resize(threads.size(), false);
                tids[tid] = true;
                break;
              }
              case SyncType::QueuePush:
              case SyncType::QueuePop:
              case SyncType::CondMarker:
                break;
              case SyncType::None:
              default:
                RPPM_FATAL("sync type out of range");
            }
        }
        for (const auto &[id, depth] : lock_depth) {
            RPPM_REQUIRE(depth == 0, "mutex held at thread exit");
        }
    }

    for (size_t tid = 1; tid < threads.size(); ++tid) {
        if (threads[tid].numRecords > 0) {
            RPPM_REQUIRE(created[tid] == 1,
                         "thread with records must be created exactly once");
        }
        RPPM_REQUIRE(created[tid] <= 1, "thread created more than once");
        RPPM_REQUIRE(joined[tid] <= 1, "thread joined more than once");
    }

    std::unordered_map<uint32_t, uint32_t> population;
    for (const auto &[id, tids] : users) {
        uint32_t n = 0;
        for (bool used : tids)
            n += used ? 1 : 0;
        population[id] = n;
    }
    return population;
}

} // namespace rppm
