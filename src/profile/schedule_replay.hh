/**
 * @file
 * Pausable round-robin schedule replayer (internal; phase B of the
 * profiler engine, profiler_stream.cc).
 *
 * Replay the profiler's round-robin quantum scheduler using only the
 * sparse sync columns plus a caller-supplied memory-count oracle. It
 * keeps the scheduler's quantum accounting, its step clock driving
 * SyncState and its deadlock check, and drops all per-record work, so
 * it costs O(#runs + #sync) instead of O(#records). Its output is the
 * exact global interleaving: for every run of micro-ops, the
 * global-sequence number its first memory access will receive.
 *
 * The replayer is *pausable*: the engine advances it in chunk-sized
 * slices, pausing between quantum slices (never inside a run), so every
 * emitted run lies entirely within one chunk and chunk boundaries are
 * exact run boundaries; a one-window profile never pauses. Because the
 * replay state (cursors, SyncState, global sequence, step clock) is
 * carried across pauses, the schedule — and therefore the profile — is
 * invariant under the chunk size.
 */

#ifndef RPPM_PROFILE_SCHEDULE_REPLAY_HH
#define RPPM_PROFILE_SCHEDULE_REPLAY_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/assert.hh"
#include "profile/profiler.hh"
#include "profile/stat_sweep.hh"
#include "sim/sync_state.hh"

namespace rppm {

class ScheduleReplayer
{
  public:
    /**
     * @param sync one SyncView per workload thread (numRecords set)
     * @param barriers barrier populations (validateAndBarrierPopulations)
     */
    ScheduleReplayer(const ProfilerOptions &opts,
                     std::vector<SyncView> sync,
                     const std::unordered_map<uint32_t, uint32_t> &barriers)
        : opts_(opts), sync_(std::move(sync)),
          numThreads_(static_cast<uint32_t>(sync_.size())),
          syncState_(numThreads_, barriers), cur_(numThreads_),
          live_(numThreads_)
    {
    }

    /**
     * Replay until @p pause returns true (checked between quantum
     * slices) or the schedule completes.
     *
     * @param memCount memCount(tid, lo, hi) -> memory accesses in
     *        records [lo, hi) of thread tid. Ranges are queried in
     *        ascending, non-overlapping order per thread (they are the
     *        runs themselves), so rolling-scan implementations work.
     * @param onRun onRun(tid, lo, hi, gseqBase, mem) for every run, in
     *        schedule order; the run's memory accesses receive global
     *        sequence numbers gseqBase+1 .. gseqBase+mem. Runs with
     *        mem == 0 are reported too (callers tracking record
     *        coverage need them).
     * @param pause checked before picking the next thread; return true
     *        to suspend. The replayer resumes exactly where it left off
     *        on the next advance() call.
     * @return true when the whole schedule has been replayed.
     */
    template <typename MemCount, typename OnRun, typename Pause>
    bool
    advance(MemCount &&memCount, OnRun &&onRun, Pause &&pause)
    {
        while (live_ > 0) {
            if (pause())
                return false;
            // Find the next runnable thread in round-robin order.
            uint32_t pick = UINT32_MAX;
            for (uint32_t i = 0; i < numThreads_; ++i) {
                const uint32_t t = (cursor_ + i) % numThreads_;
                if (!cur_[t].done && !syncState_.blocked(t)) {
                    pick = t;
                    break;
                }
            }
            RPPM_REQUIRE(pick != UINT32_MAX,
                         "deadlock during profiling (malformed trace)");
            cursor_ = (pick + 1) % numThreads_;

            Cursor &ts = cur_[pick];
            const SyncView &sv = sync_[pick];
            const size_t num_records = sv.numRecords;
            uint32_t executed = 0;
            while (ts.next < num_records && executed < opts_.quantum) {
                const size_t next_sync = sv.next(ts.syncIdx);
                if (ts.next == next_sync) {
                    const SyncType type = sv.type[ts.syncIdx];
                    const uint32_t arg = sv.arg[ts.syncIdx];
                    ++ts.syncIdx;
                    ++ts.next;
                    ++step_;
                    ++executed;
                    // Source markers never reach SyncState (and never
                    // block) in the reference replay; everything else
                    // does.
                    if (type == SyncType::CondMarker)
                        continue;
                    TraceRecord rec;
                    rec.sync = type;
                    rec.syncArg = arg;
                    const SyncOutcome out = syncState_.apply(
                        pick, rec, static_cast<double>(step_));
                    if (out.blocks)
                        break;
                    continue;
                }
                const size_t run_end = std::min(
                    next_sync, ts.next + (opts_.quantum - executed));
                const size_t run = run_end - ts.next;
                const uint64_t mem = memCount(pick, ts.next, run_end);
                onRun(pick, ts.next, run_end, globalSeq_, mem);
                globalSeq_ += mem;
                ts.next = run_end;
                step_ += run;
                executed += static_cast<uint32_t>(run);
            }
            if (ts.next >= num_records && !ts.done) {
                ts.done = true;
                --live_;
                syncState_.finish(pick, static_cast<double>(step_));
            }
        }
        return true;
    }

    /** Record cursor of thread @p t. Between advance() calls this is
     *  always a run/sync boundary — the engine's chunk edges. */
    size_t recordCursor(uint32_t t) const { return cur_[t].next; }

  private:
    struct Cursor
    {
        size_t next = 0;
        size_t syncIdx = 0;
        bool done = false;
    };

    ProfilerOptions opts_;
    std::vector<SyncView> sync_;
    uint32_t numThreads_;
    SyncState syncState_;
    std::vector<Cursor> cur_;
    uint64_t globalSeq_ = 0;
    uint64_t step_ = 0;
    uint32_t live_;
    uint32_t cursor_ = 0;
};

} // namespace rppm

#endif // RPPM_PROFILE_SCHEDULE_REPLAY_HH
