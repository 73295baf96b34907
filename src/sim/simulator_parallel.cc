/**
 * @file
 * Parallel epoch-sharded simulator engine — bit-identical to the
 * sequential engine for every job count.
 *
 * Both simulator engines walk one round-robin quantum schedule
 * (sim/round_robin.hh) whose blocking decisions depend only on event
 * *order*, never on event times (SyncState blocks on "is the child
 * finished", "have all barrier participants arrived", "is the mutex
 * held", "is the queue empty" — all order-determined); only release
 * *times* carry clock values. That makes the whole global interleaving
 * computable from the sparse sync columns alone on the walk's step
 * clock, exactly as the profiler engine (profile/profiler_stream.cc)
 * does, and the engine decomposes into phases whose parallel grains are
 * independent by construction:
 *
 *  A. Index    (parallel, one task per thread) Memory and L1I-miss
 *              prefix counts per record, plus the exact list of L1I
 *              miss positions: private L1I state depends only on the
 *              thread's own fetch stream (it is never invalidated and
 *              data accesses never touch it), so it replays
 *              thread-locally on a private SimCache replica.
 *  B. Schedule (sequential, cheap) The walk of the round-robin
 *              schedule over the sync columns: the same SyncState
 *              machine as the sequential engine on the step clock,
 *              emitting the global run list (with the global
 *              hierarchy-op sequence number each run starts at), the
 *              global event list, and per-thread pause flags for
 *              phase D.
 *  C. Resolve  (parallel) Each thread converts its runs into entries
 *              (data access or L1I miss fill) bucketed by cache-set
 *              shard; each shard then merges its entries by global
 *              sequence number and replays them through a full-size
 *              private SimHierarchy replica. Set index = line mod sets,
 *              and the shard count divides every cache's set count, so
 *              lines of different shards never share a cache set — each
 *              replica computes exactly the hits, latencies and stats
 *              the sequential hierarchy would. (This requires the
 *              hierarchy to be time-free, hence the memBusCycles == 0
 *              dispatch gate.) Results scatter into per-thread arrays
 *              by access ordinal; stats sum across shards.
 *  D. Execute  (parallel waves) Each thread's core model consumes its
 *              records with memory results served from the phase-C
 *              arrays, running free through every event whose
 *              continuation depends only on its own clock and pausing
 *              at events that may need cross-thread release times
 *              (blocking events, barriers, joins, queue pops). A
 *              sequential driver applies the recorded event times to a
 *              real SyncState in phase-B global order and routes
 *              release times back, waking threads in waves.
 *
 * Nothing is approximated: phase B pins the exact interleaving, phase C
 * replays the exact hierarchy access sequence, and phase D issues the
 * exact per-thread call sequence of the sequential engine — so results
 * are byte-identical, which tests/test_sim_parallel.cc asserts against
 * the committed corpus tests/golden/sim.txt on the whole workload suite
 * for several job counts.
 */

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/assert.hh"
#include "common/parallel.hh"
#include "sim/round_robin.hh"
#include "sim/sim_hierarchy.hh"
#include "sim/sim_internal.hh"
#include "sim/simulator.hh"
#include "sim/sync_state.hh"

namespace rppm {

namespace {

/** One scheduled run of micro-ops with at least one hierarchy op:
 *  records [start, end) of one thread, whose hierarchy accesses (L1I
 *  miss fills + data accesses) receive sequence numbers opSeqBase.. */
struct SchedRun
{
    uint64_t start;
    uint64_t end;
    uint64_t opSeqBase;
};

/** One global-order event: a non-marker sync record or a thread finish. */
struct SchedEvent
{
    uint32_t tid;
    uint32_t arg;
    SyncType type;
    uint8_t isFinish;
    uint8_t blocks;
};

/** Phase-B output: the pinned global interleaving. */
struct Schedule
{
    std::vector<std::vector<SchedRun>> runs;  ///< per thread, ascending
    std::vector<SchedEvent> events;           ///< global apply order
    /** Per thread, per non-marker sync event: must the phase-D worker
     *  pause there and wait for the driver? True for blocking events and
     *  for every event type whose continuation time can depend on other
     *  threads (barrier release, join return, queue-pop item time). */
    std::vector<std::vector<uint8_t>> pause;
};

/** Event types whose *non-blocking* outcome can still carry a release
 *  time computed from other threads' clocks. */
bool
mayPauseType(SyncType type)
{
    return type == SyncType::BarrierWait ||
        type == SyncType::CondBarrier || type == SyncType::ThreadJoin ||
        type == SyncType::QueuePop;
}

/** One hierarchy access routed to a cache-set shard (phase C). */
struct ReplayEntry
{
    uint64_t opSeq;   ///< global hierarchy-op sequence number
    uint64_t addr;    ///< byte address (data) or PC (miss fill)
    uint32_t ordinal; ///< index into the thread's result array
    uint8_t kind;     ///< 0 = load, 1 = store, 2 = L1I miss fill
};

constexpr uint8_t kLoad = 0;
constexpr uint8_t kStore = 1;
constexpr uint8_t kFetchFill = 2;

/**
 * Phase B: walk the round-robin schedule (sim/round_robin.hh) from the
 * sync columns and the phase-A prefix counts, with none of the
 * per-record work. The step clock stands in for real time, which is
 * sound because SyncState's blocking decisions are order-only.
 */
Schedule
scheduleRuns(const ColumnarTrace &trace, const SimOptions &opts,
             const std::vector<std::vector<uint32_t>> &memPrefix,
             const std::vector<std::vector<uint32_t>> &missPrefix,
             const std::unordered_map<uint32_t, uint32_t> &barriers)
{
    const uint32_t num_threads = static_cast<uint32_t>(trace.numThreads());
    SyncState sync(num_threads, barriers);

    Schedule sched;
    sched.runs.resize(num_threads);
    sched.pause.resize(num_threads);
    uint64_t op_seq = 0;
    RoundRobin schedule(syncViews(trace), sync, opts.quantum);
    schedule.walk(
        [&](uint32_t tid, size_t lo, size_t hi) {
            const uint64_t ops =
                (memPrefix[tid][hi] - memPrefix[tid][lo]) +
                (missPrefix[tid][hi] - missPrefix[tid][lo]);
            if (ops > 0) {
                sched.runs[tid].push_back(SchedRun{lo, hi, op_seq});
                op_seq += ops;
            }
        },
        [&](uint32_t tid, SyncType type, uint32_t arg) {
            const SyncOutcome out = sync.apply(
                tid, type, arg, static_cast<double>(schedule.step()));
            sched.events.push_back(SchedEvent{
                tid, arg, type, 0, static_cast<uint8_t>(out.blocks)});
            sched.pause[tid].push_back(
                out.blocks || mayPauseType(type) ? 1 : 0);
            return out.blocks;
        },
        [&](uint32_t tid) {
            sched.events.push_back(
                SchedEvent{tid, 0, SyncType::None, 1, 0});
            sync.finish(tid, static_cast<double>(schedule.step()));
        });
    return sched;
}

/**
 * Memory system replaying pre-resolved results (phase D). Data accesses
 * consume the thread's AccessResult array in record order; instruction
 * fetches return the pre-resolved stall exactly at the recorded L1I
 * miss positions (the walker announces the current record index, since
 * execute-call counts do not align with record indices across sync
 * slots) and 0 everywhere else. A concrete (non-virtual) type so the
 * phase-D CoreModelT instantiation dispatches to it directly.
 */
class ArrayMemory
{
  public:
    ArrayMemory(const std::vector<AccessResult> &data_res,
                const std::vector<uint64_t> &miss_rec_idx,
                const std::vector<uint32_t> &miss_stalls)
        : dataRes_(data_res), missRecIdx_(miss_rec_idx),
          missStalls_(miss_stalls)
    {}

    AccessResult
    dataAccess(uint64_t /*addr*/, bool /*is_write*/, double /*now*/)
    {
        return dataRes_[memIdx_++];
    }

    uint32_t
    instrFetch(uint64_t /*pc*/)
    {
        if (missCursor_ < missRecIdx_.size() &&
            missRecIdx_[missCursor_] == recIdx_) {
            return missStalls_[missCursor_++];
        }
        return 0;
    }

    void atRecord(size_t i) { recIdx_ = i; }

  private:
    const std::vector<AccessResult> &dataRes_;
    const std::vector<uint64_t> &missRecIdx_;
    const std::vector<uint32_t> &missStalls_;
    size_t memIdx_ = 0;
    size_t missCursor_ = 0;
    uint64_t recIdx_ = 0;
};

/** Statically-dispatched core model used by phase D. */
using ParallelCore = CoreModelT<ArrayMemory, TournamentPredictor>;

/** Largest power of two dividing @p x (x > 0). */
uint32_t
lowPow2(uint32_t x)
{
    return x & (~x + 1);
}

void
addMemStats(CoreMemStats &into, const CoreMemStats &from)
{
    into.l1iAccesses += from.l1iAccesses;
    into.l1iMisses += from.l1iMisses;
    into.l1dAccesses += from.l1dAccesses;
    into.l1dMisses += from.l1dMisses;
    into.l2Accesses += from.l2Accesses;
    into.l2Misses += from.l2Misses;
    into.llcAccesses += from.llcAccesses;
    into.llcMisses += from.llcMisses;
    into.coherenceMisses += from.coherenceMisses;
    into.invalidationsReceived += from.invalidationsReceived;
}

} // namespace

SimResult
sim_detail::simulateParallelImpl(const ColumnarTrace &trace,
                                 const MulticoreConfig &cfg,
                                 const SimOptions &opts, unsigned jobs)
{
    const uint32_t num_threads = static_cast<uint32_t>(trace.numThreads());
    const ParallelExecutor pool(jobs);
    const MulticoreConfig hier_cfg =
        sim_detail::expandedHierConfig(cfg, num_threads);
    RPPM_ASSERT(hier_cfg.memBusCycles == 0);
    const std::unordered_map<uint32_t, uint32_t> barriers =
        trace.validateAndBarrierPopulations();

    std::vector<double> scale(num_threads);
    for (uint32_t t = 0; t < num_threads; ++t)
        scale[t] = cfg.threadTimeScale(t);

    // --- Phase A: per-thread prefix counts and private L1I replay.
    std::vector<std::vector<uint32_t>> memPrefix(num_threads);
    std::vector<std::vector<uint32_t>> missPrefix(num_threads);
    std::vector<std::vector<uint64_t>> missRecIdx(num_threads);
    pool.forEach(num_threads, [&](size_t t) {
        const ThreadColumns &cols = trace.threads[t];
        const size_t num_records = cols.numRecords();
        RPPM_REQUIRE(num_records < UINT32_MAX,
                     "trace thread exceeds 2^32 records");
        SimCache l1i(hier_cfg.cores[t].l1i);
        std::vector<uint32_t> &mem = memPrefix[t];
        std::vector<uint32_t> &miss = missPrefix[t];
        mem.resize(num_records + 1);
        miss.resize(num_records + 1);
        uint32_t mem_count = 0;
        uint32_t miss_count = 0;
        size_t sync_idx = 0;
        for (size_t i = 0; i < num_records; ++i) {
            mem[i] = mem_count;
            miss[i] = miss_count;
            const size_t next_sync = sync_idx < cols.syncPos.size() ?
                static_cast<size_t>(cols.syncPos[sync_idx]) : num_records;
            if (i == next_sync) {
                ++sync_idx;
                continue;
            }
            if (!l1i.access(cols.pc[i], false)) {
                missRecIdx[t].push_back(i);
                ++miss_count;
            }
            if (isMemory(cols.op[i]))
                ++mem_count;
        }
        mem[num_records] = mem_count;
        miss[num_records] = miss_count;
    });

    // --- Phase B: the schedule (sequential, O(#runs + #sync)).
    const Schedule sched =
        scheduleRuns(trace, opts, memPrefix, missPrefix, barriers);

    // --- Phase C: shard-bucketed hierarchy replay.
    // The shard count must divide every cache's set count so that lines
    // of different shards can never share a set (set index = line mod
    // sets); under that condition a full-size replica replaying only its
    // shard's entries is exactly the sequential hierarchy restricted to
    // those sets. The count itself is pure execution policy.
    uint32_t shardable = lowPow2(hier_cfg.llc.numSets());
    for (const CoreConfig &core : hier_cfg.cores) {
        shardable = std::min(shardable, lowPow2(core.l1d.numSets()));
        shardable = std::min(shardable, lowPow2(core.l2.numSets()));
    }
    uint32_t target = 1;
    while (target < 4 * jobs && target < 16)
        target *= 2;
    const uint32_t num_shards = std::min(shardable, target);
    const uint64_t line_bytes = hier_cfg.llc.lineBytes;

    std::vector<std::vector<std::vector<ReplayEntry>>> buckets(num_threads);
    pool.forEach(num_threads, [&](size_t t) {
        const ThreadColumns &cols = trace.threads[t];
        auto &mine = buckets[t];
        mine.resize(num_shards);
        const size_t expect =
            (cols.addr.size() + missRecIdx[t].size()) / num_shards + 16;
        for (auto &bucket : mine)
            bucket.reserve(expect);
        size_t miss_ptr = 0;
        for (const SchedRun &run : sched.runs[t]) {
            while (miss_ptr < missRecIdx[t].size() &&
                   missRecIdx[t][miss_ptr] < run.start) {
                ++miss_ptr;
            }
            uint32_t mem_idx = memPrefix[t][run.start];
            uint64_t op_seq = run.opSeqBase;
            for (size_t i = run.start; i < run.end; ++i) {
                // The core fetches before it issues the data access.
                if (miss_ptr < missRecIdx[t].size() &&
                    missRecIdx[t][miss_ptr] == i) {
                    const uint64_t pc = cols.pc[i];
                    mine[(pc / line_bytes) & (num_shards - 1)].push_back(
                        ReplayEntry{op_seq++, pc,
                                    static_cast<uint32_t>(miss_ptr),
                                    kFetchFill});
                    ++miss_ptr;
                }
                const OpClass op = cols.op[i];
                if (!isMemory(op))
                    continue;
                const uint64_t a = cols.addr[mem_idx];
                mine[(a / line_bytes) & (num_shards - 1)].push_back(
                    ReplayEntry{op_seq++, a, mem_idx,
                                op == OpClass::Store ? kStore : kLoad});
                ++mem_idx;
            }
        }
    });

    std::vector<std::vector<AccessResult>> dataRes(num_threads);
    std::vector<std::vector<uint32_t>> missStalls(num_threads);
    for (uint32_t t = 0; t < num_threads; ++t) {
        dataRes[t].resize(trace.threads[t].addr.size());
        missStalls[t].resize(missRecIdx[t].size());
    }
    std::vector<std::unique_ptr<SimHierarchy>> shardHiers(num_shards);
    pool.forEach(num_shards, [&](size_t s) {
        uint64_t shard_total = 0;
        for (uint32_t t = 0; t < num_threads; ++t)
            shard_total += buckets[t][s].size();
        if (shard_total == 0)
            return;
        // shard_total counts this shard's hierarchy operations — an
        // upper bound on its distinct lines, pre-sizing the directory.
        shardHiers[s] = std::make_unique<SimHierarchy>(hier_cfg,
                                                       shard_total);
        SimHierarchy &hier = *shardHiers[s];

        // Deterministic merge of the per-thread entry lists by global
        // sequence number (each list is already ascending; opSeq values
        // are globally unique): exactly the order in which the
        // sequential engine performs these hierarchy operations.
        std::vector<size_t> at(num_threads, 0);
        for (uint64_t n = 0; n < shard_total; ++n) {
            uint32_t tid = UINT32_MAX;
            uint64_t best = UINT64_MAX;
            for (uint32_t t = 0; t < num_threads; ++t) {
                if (at[t] < buckets[t][s].size() &&
                    buckets[t][s][at[t]].opSeq < best) {
                    best = buckets[t][s][at[t]].opSeq;
                    tid = t;
                }
            }
            const ReplayEntry &e = buckets[tid][s][at[tid]++];
            // Software-prefetch a few entries down the winning thread's
            // list — the likeliest near-future probes of this shard's
            // replica. No architectural effect.
            if (at[tid] + 7 < buckets[tid][s].size())
                hier.prefetchData(tid, buckets[tid][s][at[tid] + 7].addr);
            if (e.kind == kFetchFill) {
                missStalls[tid][e.ordinal] =
                    hier.instrMissFill(tid, e.addr);
            } else {
                dataRes[tid][e.ordinal] =
                    hier.dataAccess(tid, e.addr, e.kind == kStore, 0.0);
            }
        }
    });
    buckets.clear();
    buckets.shrink_to_fit();

    // --- Phase D: per-thread core models in waves.
    SimResult result;
    result.workload = trace.name;
    result.config = cfg.name;
    result.threads.resize(num_threads);

    struct ThreadSim
    {
        explicit ThreadSim(const ThreadColumns &cols) : cur(cols) {}

        ColumnCursor cur;
        std::unique_ptr<TournamentPredictor> pred;
        std::unique_ptr<ArrayMemory> mem;
        std::unique_ptr<ParallelCore> core;
        double activeStart = 0.0;
        std::vector<double> eventNow;
        bool done = false;
        bool hasResume = false;
        double resumeAt = 0.0;
    };
    std::vector<ThreadSim> sims;
    sims.reserve(num_threads);
    for (uint32_t t = 0; t < num_threads; ++t) {
        ThreadSim ts(trace.threads[t]);
        const CoreConfig &tc = cfg.threadCore(t);
        ts.pred = std::make_unique<TournamentPredictor>(tc.branch);
        ts.mem = std::make_unique<ArrayMemory>(dataRes[t], missRecIdx[t],
                                               missStalls[t]);
        ts.core = std::make_unique<ParallelCore>(tc, *ts.mem, *ts.pred);
        sims.push_back(std::move(ts));
    }

    // Run one thread until it finishes or reaches an event where it must
    // wait for the driver. Each wave's workers touch only their own
    // ThreadSim and result.threads slot (index-disjoint), and the driver
    // runs strictly between waves (forEach joins its workers), so no
    // state is concurrently shared.
    auto advanceThread = [&](uint32_t t) {
        ThreadSim &ts = sims[t];
        ParallelCore &core = *ts.core;
        if (ts.hasResume) {
            core.idleUntil(ts.resumeAt / scale[t]);
            ts.activeStart = ts.resumeAt;
            ts.hasResume = false;
        }
        while (true) {
            if (ts.cur.atEnd()) {
                const double now = core.now() * scale[t];
                if (now > ts.activeStart) {
                    result.threads[t].activity.push_back(
                        {ts.activeStart, now});
                }
                result.threads[t].finishTime = now;
                ts.eventNow.push_back(now);
                ts.done = true;
                return;
            }
            if (ts.cur.atSync()) {
                const SyncType type = ts.cur.syncType();
                ts.cur.advance();
                if (type == SyncType::CondMarker)
                    continue;
                core.syncOverhead(opts.syncOpCost);
                const double now = core.now() * scale[t];
                if (now > ts.activeStart) {
                    result.threads[t].activity.push_back(
                        {ts.activeStart, now});
                }
                ts.activeStart = now;
                const size_t idx = ts.eventNow.size();
                ts.eventNow.push_back(now);
                if (sched.pause[t][idx])
                    return;
                continue;
            }
            sim_detail::executeRange(
                ts.cur, core, ts.cur.nextSyncPos(),
                [&](size_t i) { ts.mem->atRecord(i); });
        }
    };

    // The driver: apply the recorded event times to a real SyncState in
    // phase-B global order, routing release times back to the waiting
    // workers. An event can be applied once its owner has recorded its
    // time; a wave ends when the next event's owner still has to run.
    SyncState syncD(num_threads, barriers);
    std::vector<size_t> ownApplied(num_threads, 0);
    size_t applied = 0;
    std::vector<uint32_t> runnable;
    runnable.push_back(0); // all other threads block until created
    while (applied < sched.events.size()) {
        RPPM_ASSERT(!runnable.empty());
        pool.forEach(runnable.size(),
                     [&](size_t i) { advanceThread(runnable[i]); });
        runnable.clear();
        while (applied < sched.events.size()) {
            const SchedEvent &e = sched.events[applied];
            ThreadSim &ts = sims[e.tid];
            if (ownApplied[e.tid] >= ts.eventNow.size())
                break;
            const double now = ts.eventNow[ownApplied[e.tid]];
            SyncOutcome out;
            if (e.isFinish != 0) {
                out = syncD.finish(e.tid, now);
            } else {
                out = syncD.apply(e.tid, e.type, e.arg, now);
                RPPM_ASSERT(out.blocks == (e.blocks != 0));
            }
            bool self_released = false;
            for (const auto &[tid2, when] : out.released) {
                ThreadSim &os = sims[tid2];
                os.hasResume = true;
                os.resumeAt = when;
                if (tid2 == e.tid)
                    self_released = true;
                runnable.push_back(tid2);
            }
            // A thread paused at a non-blocking event with no release
            // (join of an already-past child, pop of an already-pushed
            // item) just continues with its own clock.
            if (e.isFinish == 0 && e.blocks == 0 && !self_released &&
                sched.pause[e.tid][ownApplied[e.tid]] != 0) {
                runnable.push_back(e.tid);
            }
            ++ownApplied[e.tid];
            ++applied;
        }
    }

    // --- Assembly: shard stats summed per thread, L1I stats from the
    // phase-A replay (order-free integer sums).
    std::vector<CoreMemStats> memStats(num_threads);
    for (uint32_t t = 0; t < num_threads; ++t) {
        for (uint32_t s = 0; s < num_shards; ++s) {
            if (shardHiers[s])
                addMemStats(memStats[t], shardHiers[s]->coreStats(t));
        }
        memStats[t].l1iAccesses = trace.threads[t].numOps();
        memStats[t].l1iMisses = missRecIdx[t].size();
    }

    sim_detail::finalizeResult(
        result, cfg, num_threads,
        [&](uint32_t t) -> ParallelCore & { return *sims[t].core; },
        [&](uint32_t t) { return sims[t].pred->stats(); },
        [&](uint32_t t) { return memStats[t]; });
    return result;
}

} // namespace rppm
