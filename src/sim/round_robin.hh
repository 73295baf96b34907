/**
 * @file
 * The round-robin quantum schedule (internal): the one interleaving of
 * a workload's threads that the profiler measures and both simulator
 * engines execute. Global reuse distances mean something only if the
 * profiler interleaves threads exactly as the simulator does, so the
 * policy lives here once:
 *
 *  - each turn, the next runnable thread after a rotating cursor
 *    advances by up to `quantum` records; a blocking event ends it;
 *  - every sync record, CondMarker included, uses one quantum slot, and
 *    markers never reach SyncState;
 *  - a thread finishes once its records are exhausted and it is not
 *    blocked; no runnable thread while some are unfinished is a
 *    deadlock (std::invalid_argument).
 *
 * The walker reads only the sparse sync columns, so a turn costs one
 * step per micro-op run, not per record. Callers own the SyncState and
 * their clock and supply the per-run and per-event work as inlined
 * hooks (see advance()). The step clock counts quantum slots consumed;
 * engines whose blocking decisions are order-only (the profiler, the
 * parallel simulator's schedule phase) apply events on it.
 */

#ifndef RPPM_SIM_ROUND_ROBIN_HH
#define RPPM_SIM_ROUND_ROBIN_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/assert.hh"
#include "sim/sync_state.hh"
#include "trace/columnar.hh"

namespace rppm {

class RoundRobin
{
  public:
    /**
     * @param sync one SyncView per workload thread
     * @param state the caller's SyncState, consulted for blocked()
     * @param quantum records per turn (> 0)
     */
    RoundRobin(std::vector<SyncView> sync, const SyncState &state,
               uint32_t quantum)
        : sync_(std::move(sync)),
          numThreads_(static_cast<uint32_t>(sync_.size())),
          state_(state), quantum_(quantum), cur_(numThreads_),
          live_(numThreads_)
    {
        RPPM_REQUIRE(quantum_ > 0, "scheduler quantum must be positive");
    }

    /**
     * Walk the schedule until @p pause returns true (checked before each
     * pick, so only between quantum slices) or every thread has
     * finished; the next call resumes exactly where this one paused.
     *
     * @param run run(tid, lo, hi): records [lo, hi) of tid, all micro-ops
     * @param event event(tid, type, arg) -> bool: a non-marker sync
     *        record; present it to the SyncState and return whether it
     *        blocks. step() already includes its slot.
     * @param finish finish(tid): tid finished; tell the SyncState
     * @return true when the whole schedule has been walked.
     */
    template <typename Run, typename Event, typename Finish, typename Pause>
    bool
    advance(Run &&run, Event &&event, Finish &&finish, Pause &&pause)
    {
        while (live_ > 0) {
            if (pause())
                return false;
            uint32_t pick = UINT32_MAX;
            for (uint32_t i = 0; i < numThreads_; ++i) {
                const uint32_t t = (rotor_ + i) % numThreads_;
                if (!cur_[t].done && !state_.blocked(t)) {
                    pick = t;
                    break;
                }
            }
            RPPM_REQUIRE(pick != UINT32_MAX,
                         "deadlock: no runnable thread (malformed trace)");
            rotor_ = (pick + 1) % numThreads_;

            Cursor &ts = cur_[pick];
            const SyncView &sv = sync_[pick];
            uint32_t executed = 0;
            while (ts.next < sv.numRecords && executed < quantum_) {
                const size_t next_sync = sv.next(ts.syncIdx);
                if (ts.next == next_sync) {
                    const SyncType type = sv.type[ts.syncIdx];
                    const uint32_t arg = sv.arg[ts.syncIdx];
                    ++ts.syncIdx;
                    ++ts.next;
                    ++step_;
                    ++executed;
                    if (type != SyncType::CondMarker &&
                        event(pick, type, arg))
                        break;
                    continue;
                }
                const size_t run_end =
                    std::min(next_sync, ts.next + (quantum_ - executed));
                run(pick, ts.next, run_end);
                step_ += run_end - ts.next;
                executed += static_cast<uint32_t>(run_end - ts.next);
                ts.next = run_end;
            }
            if (ts.next >= sv.numRecords && !state_.blocked(pick)) {
                ts.done = true;
                --live_;
                finish(pick);
            }
        }
        return true;
    }

    /** Walk the whole schedule. */
    template <typename Run, typename Event, typename Finish>
    void
    walk(Run &&run, Event &&event, Finish &&finish)
    {
        advance(run, event, finish, [] { return false; });
    }

    /** Quantum slots consumed so far. */
    uint64_t step() const { return step_; }

    /** Next record of thread @p t; between advance() calls always a
     *  run/sync boundary. */
    size_t cursor(uint32_t t) const { return cur_[t].next; }

  private:
    struct Cursor
    {
        size_t next = 0;
        size_t syncIdx = 0;
        bool done = false;
    };

    std::vector<SyncView> sync_;
    uint32_t numThreads_;
    const SyncState &state_;
    uint32_t quantum_;
    std::vector<Cursor> cur_;
    uint64_t step_ = 0;
    uint32_t live_;
    uint32_t rotor_ = 0;
};

} // namespace rppm

#endif // RPPM_SIM_ROUND_ROBIN_HH
