/**
 * @file
 * Reference profiler: the original multi-pass AoS implementation.
 *
 * Kept verbatim as the correctness oracle for the columnar engine
 * (profiler_stream.cc): every equivalence test compares its serialized
 * profiles byte for byte against this implementation's, and bench/perf
 * reports profileWorkload()'s speedup
 * against it. It walks the AoS trace three times (validate,
 * barrier populations, replay) and keeps its hot state in
 * std::unordered_map.
 */

#include "profile/profiler.hh"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/assert.hh"
#include "sim/sync_state.hh"

namespace rppm {

namespace {

/** Per-line reuse / coherence tracking state. */
struct LineState
{
    uint64_t lastGlobalSeq = 0;     ///< last access by any thread (1-based)
    uint64_t lastWriteSeq = 0;      ///< last write by any thread (1-based)
    uint32_t lastWriter = UINT32_MAX;
    /** Per-thread: (local access counter, global seq) of the thread's
     *  most recent access to this line; 0 = never accessed. */
    std::vector<std::pair<uint64_t, uint64_t>> perThread;
};

/** Per-thread profiling cursor and scratch state. */
struct ThreadState
{
    size_t next = 0;               ///< next record index in the trace
    bool done = false;
    uint64_t localDataSeq = 0;     ///< this thread's data access counter
    uint64_t instrSeq = 0;         ///< this thread's fetch counter
    uint64_t opsInEpoch = 0;
    uint64_t opsSinceLastLoad = 0;
    uint64_t nextMicroTraceAt = 0; ///< op index (in epoch) of next sample
    uint64_t microTraceRemaining = 0;
    /** Ring of recent op classes for load->load dependence detection. */
    std::vector<OpClass> recentOps;
    uint64_t emitted = 0;
    std::unordered_map<uint64_t, uint64_t> instrLast; ///< pc line -> seq
};

} // namespace

WorkloadProfile
profileWorkloadLegacy(const WorkloadTrace &trace, const ProfilerOptions &opts)
{
    trace.validate();
    const uint32_t num_threads = static_cast<uint32_t>(trace.numThreads());

    WorkloadProfile profile;
    profile.name = trace.name;
    profile.numThreads = num_threads;
    profile.threads.resize(num_threads);
    profile.barrierPopulation = barrierPopulations(trace);

    // Functional synchronization replay: "time" is the global record
    // step counter, only used to order wakeups.
    SyncState sync(num_threads, profile.barrierPopulation);

    std::vector<ThreadState> state(num_threads);
    constexpr size_t kRecentOps = 512;
    for (auto &ts : state) {
        ts.recentOps.assign(kRecentOps, OpClass::IntAlu);
        ts.nextMicroTraceAt = 0; // sample at every epoch start
    }
    for (uint32_t t = 0; t < num_threads; ++t) {
        profile.threads[t].epochs.emplace_back();
    }

    std::unordered_map<uint64_t, LineState> lines;
    uint64_t global_seq = 0;
    uint64_t step = 0;

    // Condvar classification bookkeeping: which threads wait at / release
    // each condvar-backed object (recognition rule of paper Sec. III-B).
    std::unordered_map<uint32_t, std::set<uint32_t>> cond_waiters;
    std::unordered_map<uint32_t, std::set<uint32_t>> cond_releasers;

    auto close_epoch = [&](uint32_t tid, SyncType type, uint32_t arg) {
        ThreadProfile &tp = profile.threads[tid];
        tp.epochs.back().endType = type;
        tp.epochs.back().endArg = arg;
        tp.epochs.emplace_back();
        ThreadState &ts = state[tid];
        ts.opsInEpoch = 0;
        ts.nextMicroTraceAt = 0;
        ts.microTraceRemaining = 0;
    };

    auto process_op = [&](uint32_t tid, const TraceRecord &rec) {
        ThreadState &ts = state[tid];
        EpochProfile &ep = profile.threads[tid].epochs.back();

        // Micro-trace sampling policy: a snippet at each epoch start and
        // then one every microTraceInterval ops.
        if (ts.microTraceRemaining == 0 &&
            ts.opsInEpoch >= ts.nextMicroTraceAt) {
            ep.microTraces.emplace_back();
            ts.microTraceRemaining = opts.microTraceLength;
            ts.nextMicroTraceAt = ts.opsInEpoch + opts.microTraceInterval;
        }

        ++ep.numOps;
        ++ep.mix[static_cast<size_t>(rec.op)];
        if (rec.dep1)
            ep.depDist.add(rec.dep1);
        if (rec.dep2)
            ep.depDist.add(rec.dep2);

        // Instruction-stream reuse distance at line granularity.
        const uint64_t pc_line = rec.pc / opts.lineBytes;
        ++ts.instrSeq;
        auto [it, inserted] = ts.instrLast.try_emplace(pc_line, 0);
        if (!inserted) {
            ep.instrRd.add(ts.instrSeq - it->second - 1);
        } else {
            ep.instrRd.add(LogHistogram::kInfinity);
        }
        it->second = ts.instrSeq;

        uint64_t local_rd = LogHistogram::kInfinity;
        uint64_t global_rd = LogHistogram::kInfinity;

        if (rec.isMem()) {
            const uint64_t line = rec.addr / opts.lineBytes;
            const bool is_store = rec.op == OpClass::Store;
            ++global_seq;
            ++ts.localDataSeq;

            LineState &ls = lines[line];
            if (ls.perThread.empty())
                ls.perThread.assign(num_threads, {0, 0});

            // Global (interleaved) reuse distance: accesses by anyone
            // since the line was last touched by anyone.
            if (ls.lastGlobalSeq != 0)
                global_rd = global_seq - ls.lastGlobalSeq - 1;

            // Per-thread reuse distance with write-invalidation: if any
            // other thread wrote the line since our last access, the
            // reuse is broken — record an infinite distance (coherence
            // miss), as in the paper's StatStack extension.
            auto &[my_count, my_seq] = ls.perThread[tid];
            if (my_count != 0) {
                const bool invalidated = opts.detectInvalidation &&
                    ls.lastWriteSeq > my_seq && ls.lastWriter != tid;
                if (!invalidated)
                    local_rd = ts.localDataSeq - my_count - 1;
            }

            ep.localRd.add(local_rd);
            ep.globalRd.add(global_rd);
            if (!is_store) {
                ep.loadLocalRd.add(local_rd);
                ep.loadGlobalRd.add(global_rd);
            }

            my_count = ts.localDataSeq;
            my_seq = global_seq;
            ls.lastGlobalSeq = global_seq;
            if (is_store) {
                ls.lastWriteSeq = global_seq;
                ls.lastWriter = tid;
            }

            if (is_store) {
                ++ep.numStores;
            } else {
                ++ep.numLoads;
                ep.loadGap.add(ts.opsSinceLastLoad);
                ts.opsSinceLastLoad = 0;
                // Pointer-chase detection: does a source operand name a
                // load among the recent ops?
                auto dep_is_load = [&](uint16_t dep) {
                    if (dep == 0 || dep > ts.emitted || dep >= kRecentOps)
                        return false;
                    return ts.recentOps[(ts.emitted - dep) % kRecentOps] ==
                        OpClass::Load;
                };
                if (dep_is_load(rec.dep1) || dep_is_load(rec.dep2))
                    ++ep.loadsDependingOnLoad;
            }
        }

        if (rec.isBranch()) {
            ++ep.numBranches;
            ep.branches.record(rec.pc, rec.taken);
        }

        if (ts.microTraceRemaining > 0) {
            MicroTraceOp mop;
            mop.op = rec.op;
            mop.dep1 = rec.dep1;
            mop.dep2 = rec.dep2;
            mop.localRd = local_rd;
            mop.globalRd = global_rd;
            ep.microTraces.back().ops.push_back(mop);
            --ts.microTraceRemaining;
        }

        ts.recentOps[ts.emitted % kRecentOps] = rec.op;
        ++ts.emitted;
        ++ts.opsInEpoch;
        if (!rec.isMem() || rec.op == OpClass::Store)
            ++ts.opsSinceLastLoad;
    };

    auto process_sync = [&](uint32_t tid, const TraceRecord &rec) -> bool {
        // Returns true when the thread blocks.
        switch (rec.sync) {
          case SyncType::MutexLock:
            ++profile.syncCounts.criticalSections;
            break;
          case SyncType::BarrierWait:
            ++profile.syncCounts.barriers;
            break;
          case SyncType::CondBarrier:
            ++profile.syncCounts.condVars;
            cond_waiters[rec.syncArg].insert(tid);
            cond_releasers[rec.syncArg].insert(tid);
            break;
          case SyncType::QueuePop:
            ++profile.syncCounts.condVars;
            cond_waiters[rec.syncArg].insert(tid);
            break;
          case SyncType::QueuePush:
            ++profile.syncCounts.condVars;
            cond_releasers[rec.syncArg].insert(tid);
            break;
          default:
            break;
        }

        if (rec.sync == SyncType::CondMarker) {
            // Source marker: the thread *could* wait here. Recorded for
            // classification; does not delineate an epoch.
            cond_waiters[rec.syncArg];
            return false;
        }

        const SyncOutcome out =
            sync.apply(tid, rec, static_cast<double>(step));
        close_epoch(tid, rec.sync, rec.syncArg);
        return out.blocks;
    };

    // Round-robin functional replay.
    uint32_t live = num_threads;
    uint32_t cursor = 0;
    while (live > 0) {
        // Find the next runnable thread in round-robin order.
        uint32_t pick = UINT32_MAX;
        for (uint32_t i = 0; i < num_threads; ++i) {
            const uint32_t t = (cursor + i) % num_threads;
            if (!state[t].done && !sync.blocked(t)) {
                pick = t;
                break;
            }
        }
        RPPM_REQUIRE(pick != UINT32_MAX,
                     "deadlock during profiling (malformed trace)");
        cursor = (pick + 1) % num_threads;

        ThreadState &ts = state[pick];
        const auto &records = trace.threads[pick].records;
        uint32_t executed = 0;
        while (ts.next < records.size() && executed < opts.quantum) {
            const TraceRecord &rec = records[ts.next];
            ++ts.next;
            ++step;
            ++executed;
            if (rec.isSync()) {
                if (process_sync(pick, rec))
                    break;
            } else {
                process_op(pick, rec);
            }
        }
        if (ts.next >= records.size() && !ts.done) {
            ts.done = true;
            --live;
            sync.finish(pick, static_cast<double>(step));
        }
    }

    // Classify condvar-backed objects: symmetric waiter/releaser sets
    // mean a barrier; disjoint sets mean producer-consumer.
    // rppm-lint: ordered-ok(distinct condVarClasses key per id)
    for (const auto &[id, waiters] : cond_waiters) {
        const auto rel_it = cond_releasers.find(id);
        std::set<uint32_t> releasers =
            rel_it == cond_releasers.end() ? std::set<uint32_t>{} :
            rel_it->second;
        const bool symmetric = !waiters.empty() && waiters == releasers;
        profile.condVarClasses[id] = symmetric ?
            CondVarClass::BarrierLike : CondVarClass::ProducerConsumer;
    }

    return profile;
}

} // namespace rppm
