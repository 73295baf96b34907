#include "rppm/sync_model.hh"

#include <limits>

#include "common/assert.hh"
#include "sim/sync_state.hh"

namespace rppm {

namespace detail {

/** Algorithm 2 with an explicit per-thread reference-cycles-per-own-
 *  cycle conversion factor (all 1.0 = single clock domain). */
SyncModelResult
runSyncModelScaled(const WorkloadProfile &profile,
                   const std::vector<ThreadPrediction> &threads,
                   const std::vector<double> &scales,
                   const SyncModelOptions &opts);

} // namespace detail

SyncModelResult
runSyncModel(const WorkloadProfile &profile,
             const std::vector<ThreadPrediction> &threads,
             const SyncModelOptions &opts)
{
    const std::vector<double> scales(profile.numThreads, 1.0);
    return detail::runSyncModelScaled(profile, threads, scales, opts);
}

SyncModelResult
runSyncModel(const WorkloadProfile &profile,
             const std::vector<ThreadPrediction> &threads,
             const MulticoreConfig &cfg, const SyncModelOptions &opts)
{
    std::vector<double> scales(profile.numThreads, 1.0);
    for (uint32_t t = 0; t < profile.numThreads; ++t)
        scales[t] = cfg.threadTimeScale(t);
    return detail::runSyncModelScaled(profile, threads, scales, opts);
}

namespace detail {

SyncModelResult
runSyncModelScaled(const WorkloadProfile &profile,
                   const std::vector<ThreadPrediction> &threads,
                   const std::vector<double> &scales,
                   const SyncModelOptions &opts)
{
    const uint32_t num_threads = profile.numThreads;
    RPPM_REQUIRE(threads.size() == num_threads,
                 "one ThreadPrediction required per profiled thread");

    // The symbolic execution reuses the runtime synchronization state
    // machine; only the notion of time differs (predicted epoch durations
    // rather than simulated cycles).
    SyncState sync(num_threads, profile.barrierPopulation);

    SyncModelResult result;
    result.threadFinish.assign(num_threads, 0.0);
    result.threadIdle.assign(num_threads, 0.0);
    result.activity.resize(num_threads);

    struct Cursor
    {
        size_t epoch = 0;      ///< next epoch to execute
        double time = 0.0;     ///< accumulated (active + idle) time
        double activeStart = 0.0;
        bool done = false;
    };
    std::vector<Cursor> cursors(num_threads);

    auto handle_releases = [&](const SyncOutcome &out) {
        for (const auto &[tid, when] : out.released) {
            Cursor &c = cursors[tid];
            if (when > c.time) {
                // Reference-cycle gap, booked in the thread's own clock
                // so it stacks onto the thread's CPI components.
                result.threadIdle[tid] += (when - c.time) / scales[tid];
                c.time = when;
            }
            c.activeStart = c.time;
        }
    };

    // Algorithm 2: while not finished, advance the unblocked thread with
    // the smallest accumulated time to its next synchronization event.
    uint32_t live = num_threads;
    while (live > 0) {
        uint32_t pick = num_threads;
        double best = std::numeric_limits<double>::infinity();
        for (uint32_t t = 0; t < num_threads; ++t) {
            if (cursors[t].done || sync.blocked(t))
                continue;
            if (cursors[t].time < best) {
                best = cursors[t].time;
                pick = t;
            }
        }
        RPPM_REQUIRE(pick < num_threads,
                     "deadlock in symbolic execution (profile mismatch)");

        Cursor &cur = cursors[pick];
        const ThreadProfile &tp = profile.threads[pick];
        const ThreadPrediction &pred = threads[pick];
        RPPM_ASSERT(cur.epoch < tp.epochs.size());

        // Advance through the epoch's active execution time (converted
        // from the thread's core cycles to the reference time base).
        cur.time += pred.epochs[cur.epoch].cycles * scales[pick];
        const EpochProfile &epoch = tp.epochs[cur.epoch];
        ++cur.epoch;

        if (epoch.endType == SyncType::None) {
            // Thread end.
            cur.done = true;
            --live;
            result.threadFinish[pick] = cur.time;
            if (cur.time > cur.activeStart)
                result.activity[pick].push_back(
                    {cur.activeStart, cur.time});
            handle_releases(sync.finish(pick, cur.time));
            continue;
        }

        // Synchronization operations cost real cycles on the thread's
        // own clock, mirroring the simulator's per-event overhead.
        cur.time += opts.syncOpCost * scales[pick];

        // Close the activity interval at every sync event: a release may
        // move this thread's activeStart (e.g. when it is the last
        // arrival opening a barrier), which would otherwise silently
        // drop the work accumulated since the previous event. Adjacent
        // intervals merge naturally in the bottlegraph sweep.
        if (cur.time > cur.activeStart)
            result.activity[pick].push_back({cur.activeStart, cur.time});
        cur.activeStart = cur.time;

        const SyncOutcome out =
            sync.apply(pick, epoch.endType, epoch.endArg, cur.time);
        handle_releases(out);
        // If blocked, idle runs until a release advances cur.time.
    }

    for (uint32_t t = 0; t < num_threads; ++t)
        result.totalCycles = std::max(result.totalCycles,
                                      result.threadFinish[t]);
    return result;
}

} // namespace detail

} // namespace rppm
