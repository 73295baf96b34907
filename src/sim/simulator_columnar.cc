/**
 * @file
 * Sequential columnar simulator engine + engine dispatch.
 *
 * Fetch is driven from the ColumnarTrace columns: runs of micro-ops
 * between sync events execute without per-record sync tests, through a
 * CoreModelT bound directly to the flat-table SimHierarchy; sync
 * records go through SyncState. tests/test_sim_parallel.cc pins this
 * engine and the parallel one to the committed corpus
 * tests/golden/sim.txt on the whole workload suite.
 */

#include <algorithm>

#include "common/assert.hh"
#include "common/parallel.hh"
#include "sim/sim_hierarchy.hh"
#include "sim/sim_internal.hh"
#include "sim/simulator.hh"
#include "sim/sync_state.hh"

namespace rppm {

namespace {

/**
 * How many memory records ahead of the execution point the engines
 * software-prefetch the hierarchy's table rows. Far enough to cover a
 * DRAM round trip under the work between two memory ops, near enough
 * that the prefetched rows are still resident when reached.
 */
constexpr size_t kPrefetchDistance = 8;

/**
 * Binds a SimHierarchy to one core as CoreModelT's memory system.
 * A concrete (non-virtual) type: the engine instantiates CoreModelT on
 * it so every data access and instruction fetch is a direct call.
 */
class SimMemoryAdapter
{
  public:
    SimMemoryAdapter(SimHierarchy &hier, const ColumnCursor &cur,
                     uint32_t core)
        : hier_(hier), cur_(cur), core_(core)
    {}

    AccessResult
    dataAccess(uint64_t addr, bool is_write, double now)
    {
        // The cursor still points at the record being executed, so this
        // reaches kPrefetchDistance memory records past it (and a line
        // number of 0 once the column runs out — a harmless touch of
        // resident rows). Prefetch has no architectural effect, so the
        // byte-identity with the other engines is untouched.
        hier_.prefetchData(core_, cur_.peekAddr(kPrefetchDistance));
        return hier_.dataAccess(core_, addr, is_write, now);
    }

    uint32_t
    instrFetch(uint64_t pc)
    {
        return hier_.instrFetch(core_, pc);
    }

  private:
    SimHierarchy &hier_;
    const ColumnCursor &cur_;
    uint32_t core_;
};

/** Statically-dispatched core model used by this engine. */
using ColumnarCore = CoreModelT<SimMemoryAdapter, TournamentPredictor>;

SimResult
simulateColumnarSequential(const ColumnarTrace &trace,
                           const MulticoreConfig &cfg,
                           const SimOptions &opts)
{
    const uint32_t num_threads =
        static_cast<uint32_t>(trace.numThreads());

    const MulticoreConfig hier_cfg =
        sim_detail::expandedHierConfig(cfg, num_threads);
    // The data-access count bounds the distinct-line count; pre-sizing
    // the coherence directory avoids rehash-on-doubling on streaming
    // traces where nearly every access touches a fresh line.
    uint64_t data_accesses = 0;
    for (const ThreadColumns &cols : trace.threads)
        data_accesses += cols.addr.size();
    SimHierarchy hierarchy(hier_cfg, data_accesses);

    // Per-thread conversion to the common time base (reference cycles,
    // i.e. cycles of the *original* config's core 0); exactly 1.0
    // everywhere on a homogeneous machine.
    std::vector<double> scale(num_threads);
    for (uint32_t t = 0; t < num_threads; ++t)
        scale[t] = cfg.threadTimeScale(t);

    struct Cursor
    {
        ColumnCursor cur;
        bool done = false;
        double activeStart = 0.0;
    };
    std::vector<Cursor> cursors;
    cursors.reserve(num_threads);
    for (uint32_t t = 0; t < num_threads; ++t)
        cursors.push_back({ColumnCursor(trace.threads[t]), false, 0.0});

    std::vector<std::unique_ptr<SimMemoryAdapter>> mems;
    std::vector<std::unique_ptr<TournamentPredictor>> preds;
    std::vector<std::unique_ptr<ColumnarCore>> cores;
    for (uint32_t t = 0; t < num_threads; ++t) {
        const CoreConfig &tc = cfg.threadCore(t);
        mems.push_back(std::make_unique<SimMemoryAdapter>(
            hierarchy, cursors[t].cur, t));
        preds.push_back(std::make_unique<TournamentPredictor>(tc.branch));
        cores.push_back(
            std::make_unique<ColumnarCore>(tc, *mems[t], *preds[t]));
    }

    SyncState sync(num_threads, trace.validateAndBarrierPopulations());

    SimResult result;
    result.workload = trace.name;
    result.config = cfg.name;
    result.threads.resize(num_threads);

    auto close_activity = [&](uint32_t tid, double at) {
        if (at > cursors[tid].activeStart)
            result.threads[tid].activity.push_back(
                {cursors[tid].activeStart, at});
    };

    auto handle_releases = [&](const SyncOutcome &out) {
        for (const auto &[tid, when] : out.released) {
            // @p when is reference cycles; the core idles on its own
            // clock.
            cores[tid]->idleUntil(when / scale[tid]);
            cursors[tid].activeStart = when;
        }
    };

    // Main loop: the round-robin quantum scheduler (the exact discipline
    // the profiler uses, so the parallel engine can replay the schedule
    // from the sync columns alone). Each turn picks the next runnable
    // thread after the rotating cursor and advances it by up to
    // opts.quantum records; sync events consume one quantum slot, and a
    // blocking event ends the turn. Source markers (CondMarker) consume
    // their slot but have no runtime effect or cost. Runs of micro-ops
    // between sync events execute as one batch with no per-record sync
    // test.
    uint32_t live = num_threads;
    uint32_t cursor = 0;
    while (live > 0) {
        uint32_t pick = UINT32_MAX;
        for (uint32_t i = 0; i < num_threads; ++i) {
            const uint32_t t = (cursor + i) % num_threads;
            if (!cursors[t].done && !sync.blocked(t)) {
                pick = t;
                break;
            }
        }
        RPPM_REQUIRE(pick != UINT32_MAX,
                     "deadlock: no runnable thread (malformed trace)");
        cursor = (pick + 1) % num_threads;

        Cursor &cur = cursors[pick];
        uint32_t executed = 0;
        while (!cur.cur.atEnd() && executed < opts.quantum) {
            if (cur.cur.atSync()) {
                const SyncType type = cur.cur.syncType();
                const uint32_t arg = cur.cur.syncArg();
                cur.cur.advance();
                ++executed;
                if (type == SyncType::CondMarker)
                    continue;
                // Sync ops cost real cycles (atomics, futex path) on the
                // thread's own clock before their semantic effect
                // happens. Close this thread's activity interval before
                // applying the event: a release may advance its
                // activeStart (last arrival at a barrier), which would
                // drop the interval.
                cores[pick]->syncOverhead(opts.syncOpCost);
                const double now = cores[pick]->now() * scale[pick];
                close_activity(pick, now);
                cur.activeStart = now;
                TraceRecord rec;
                rec.sync = type;
                rec.syncArg = arg;
                const SyncOutcome out = sync.apply(pick, rec, now);
                handle_releases(out);
                if (out.blocks)
                    break;
                continue;
            }
            const size_t run_end =
                std::min(cur.cur.nextSyncPos(),
                         cur.cur.index() + (opts.quantum - executed));
            executed += static_cast<uint32_t>(run_end - cur.cur.index());
            sim_detail::executeRange(cur.cur, *cores[pick], run_end,
                                     [](size_t) {});
        }

        // A thread is only finished once it has exhausted its records
        // AND is not blocked (its last record may be a blocking sync
        // event; the release will reschedule it here with an up-to-date
        // clock).
        if (cur.cur.atEnd() && !cur.done && !sync.blocked(pick)) {
            cur.done = true;
            --live;
            const double now = cores[pick]->now() * scale[pick];
            close_activity(pick, now);
            result.threads[pick].finishTime = now;
            handle_releases(sync.finish(pick, now));
        }
    }

    sim_detail::finalizeResult(
        result, cfg, num_threads,
        [&](uint32_t t) -> ColumnarCore & { return *cores[t]; },
        [&](uint32_t t) { return preds[t]->stats(); },
        [&](uint32_t t) { return hierarchy.coreStats(t); });
    return result;
}

} // namespace

SimResult
simulate(const ColumnarTrace &trace, const MulticoreConfig &cfg,
         const SimOptions &opts)
{
    trace.validateColumnConsistency();
    cfg.validate();
    RPPM_REQUIRE(opts.quantum > 0, "scheduler quantum must be positive");
    const unsigned jobs = resolveJobs(opts.jobs);
    // The parallel engine shards cache replay by line, which requires
    // the hierarchy to be time-free: bus queueing (memBusCycles > 0)
    // couples access latency to global time, so those configs stay on
    // the sequential engine. Single-threaded traces have nothing to
    // overlap either.
    if (jobs > 1 && trace.numThreads() > 1 && cfg.memBusCycles == 0)
        return sim_detail::simulateParallelImpl(trace, cfg, opts, jobs);
    return simulateColumnarSequential(trace, cfg, opts);
}

} // namespace rppm
