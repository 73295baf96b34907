/**
 * @file
 * Sequential columnar simulator engine + engine dispatch.
 *
 * The engine walks the round-robin schedule (sim/round_robin.hh) in
 * core time. Fetch is driven from the ColumnarTrace columns: each
 * scheduled run of micro-ops executes without per-record sync tests,
 * through a CoreModelT bound directly to the flat-table SimHierarchy;
 * each sync event pays its overhead on the thread's clock, closes the
 * activity interval and goes through SyncState, whose releases idle
 * the released cores. tests/test_sim_parallel.cc pins this
 * engine and the parallel one to the committed corpus
 * tests/golden/sim.txt on the whole workload suite.
 */

#include <memory>
#include <vector>

#include "common/parallel.hh"
#include "sim/round_robin.hh"
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

    std::vector<ColumnCursor> cursors;
    cursors.reserve(num_threads);
    for (const ThreadColumns &cols : trace.threads)
        cursors.emplace_back(cols);

    std::vector<std::unique_ptr<SimMemoryAdapter>> mems;
    std::vector<std::unique_ptr<TournamentPredictor>> preds;
    std::vector<std::unique_ptr<ColumnarCore>> cores;
    for (uint32_t t = 0; t < num_threads; ++t) {
        const CoreConfig &tc = cfg.threadCore(t);
        mems.push_back(std::make_unique<SimMemoryAdapter>(
            hierarchy, cursors[t], t));
        preds.push_back(std::make_unique<TournamentPredictor>(tc.branch));
        cores.push_back(
            std::make_unique<ColumnarCore>(tc, *mems[t], *preds[t]));
    }

    SyncState sync(num_threads, trace.validateAndBarrierPopulations());

    SimResult result;
    result.workload = trace.name;
    result.config = cfg.name;
    result.threads.resize(num_threads);
    std::vector<double> activeStart(num_threads, 0.0);

    auto close_activity = [&](uint32_t tid, double at) {
        if (at > activeStart[tid])
            result.threads[tid].activity.push_back({activeStart[tid], at});
    };

    auto handle_releases = [&](const SyncOutcome &out) {
        for (const auto &[tid, when] : out.released) {
            // @p when is reference cycles; the core idles on its own
            // clock.
            cores[tid]->idleUntil(when / scale[tid]);
            activeStart[tid] = when;
        }
    };

    // Walk the round-robin schedule (sim/round_robin.hh) in core time.
    // Runs of micro-ops execute as one batch with no per-record sync
    // test; each thread's cursor first steps over the sync records
    // (markers included) the schedule consumed since its last run.
    RoundRobin schedule(syncViews(trace), sync, opts.quantum);
    schedule.walk(
        [&](uint32_t tid, size_t lo, size_t hi) {
            ColumnCursor &cur = cursors[tid];
            while (cur.index() < lo)
                cur.advance();
            sim_detail::executeRange(cur, *cores[tid], hi, [](size_t) {});
        },
        [&](uint32_t tid, SyncType type, uint32_t arg) {
            // Sync ops cost real cycles (atomics, futex path) on the
            // thread's own clock before their semantic effect happens.
            // Close this thread's activity interval before applying the
            // event: a release may advance its activeStart (last arrival
            // at a barrier), which would drop the interval.
            cores[tid]->syncOverhead(opts.syncOpCost);
            const double now = cores[tid]->now() * scale[tid];
            close_activity(tid, now);
            activeStart[tid] = now;
            const SyncOutcome out = sync.apply(tid, type, arg, now);
            handle_releases(out);
            return out.blocks;
        },
        [&](uint32_t tid) {
            const double now = cores[tid]->now() * scale[tid];
            close_activity(tid, now);
            result.threads[tid].finishTime = now;
            handle_releases(sync.finish(tid, now));
        });

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
