#include "sim/sync_state.hh"

#include <algorithm>

#include "common/assert.hh"

namespace rppm {

SyncState::SyncState(uint32_t num_threads,
                     std::unordered_map<uint32_t, uint32_t> barrier_population)
    : numThreads_(num_threads),
      barrierPopulation_(std::move(barrier_population)),
      finished_(num_threads, false),
      blocked_(num_threads, false),
      finishTime_(num_threads, 0.0)
{
    // All threads except main start blocked until created.
    for (uint32_t t = 1; t < num_threads; ++t)
        blocked_[t] = true;
}

uint32_t
SyncState::barrierPopulation(uint32_t id) const
{
    auto it = barrierPopulation_.find(id);
    RPPM_ASSERT(it != barrierPopulation_.end());
    return it->second;
}

SyncOutcome
SyncState::apply(uint32_t tid, SyncType type, uint32_t arg, double now)
{
    RPPM_ASSERT(tid < numThreads_);
    SyncOutcome out;

    switch (type) {
      case SyncType::ThreadCreate: {
        const uint32_t child = arg;
        RPPM_ASSERT(child < numThreads_ && blocked_[child]);
        blocked_[child] = false;
        out.released.emplace_back(child, now);
        break;
      }

      case SyncType::ThreadJoin: {
        const uint32_t child = arg;
        RPPM_ASSERT(child < numThreads_);
        if (!finished_[child]) {
            out.blocks = true;
            blocked_[tid] = true;
            pendingJoins_[tid] = child;
            joinWaiters_[child].push_back(tid);
        } else if (finishTime_[child] > now) {
            // The child's symbolic timeline already ran to completion,
            // but in wall-clock time it finishes later than the joiner's
            // arrival: the join returns at the child's finish time.
            out.released.emplace_back(tid, finishTime_[child]);
        }
        break;
      }

      case SyncType::BarrierWait:
      case SyncType::CondBarrier: {
        auto &table = type == SyncType::BarrierWait ?
            barriers_ : condBarriers_;
        Barrier &bar = table[arg];
        const uint32_t population = barrierPopulation(arg);
        ++bar.arrived;
        bar.maxArrival = std::max(bar.maxArrival, now);
        if (bar.arrived < population) {
            out.blocks = true;
            blocked_[tid] = true;
            bar.waiters.push_back(tid);
        } else {
            // All participants have arrived. The barrier opens at the
            // *latest arrival time* — with coarse symbolic time steps the
            // final apply() is not necessarily the latest arrival, so the
            // release time must be the max. The arriving thread is
            // included in the release list so the caller advances it too.
            const double release = bar.maxArrival;
            for (uint32_t w : bar.waiters) {
                blocked_[w] = false;
                out.released.emplace_back(w, release);
            }
            out.released.emplace_back(tid, release);
            bar.arrived = 0;
            bar.maxArrival = 0.0;
            bar.waiters.clear();
        }
        break;
      }

      case SyncType::MutexLock: {
        Mutex &mtx = mutexes_[arg];
        if (mtx.held) {
            out.blocks = true;
            blocked_[tid] = true;
            mtx.waiters.push_back(tid);
        } else {
            mtx.held = true;
            mtx.owner = tid;
        }
        break;
      }

      case SyncType::MutexUnlock: {
        Mutex &mtx = mutexes_[arg];
        RPPM_ASSERT(mtx.held && mtx.owner == tid);
        if (mtx.waiters.empty()) {
            mtx.held = false;
        } else {
            // Hand the lock to the first waiter (arrival order).
            const uint32_t next = mtx.waiters.front();
            mtx.waiters.pop_front();
            mtx.owner = next;
            blocked_[next] = false;
            out.released.emplace_back(next, now);
        }
        break;
      }

      case SyncType::QueuePush: {
        Queue &q = queues_[arg];
        if (!q.waiters.empty()) {
            const uint32_t consumer = q.waiters.front();
            q.waiters.pop_front();
            blocked_[consumer] = false;
            out.released.emplace_back(consumer, now);
        } else {
            q.itemTimes.push_back(now);
        }
        break;
      }

      case SyncType::QueuePop: {
        Queue &q = queues_[arg];
        if (q.itemTimes.empty()) {
            out.blocks = true;
            blocked_[tid] = true;
            q.waiters.push_back(tid);
        } else {
            // Consume the oldest item; the caller advances this thread
            // to the item's push time if that lies in its future.
            const double produced = q.itemTimes.front();
            q.itemTimes.pop_front();
            if (produced > now)
                out.released.emplace_back(tid, produced);
        }
        break;
      }

      case SyncType::CondMarker:
        // Profiling-only marker; no runtime effect.
        break;

      default:
        RPPM_PANIC("unhandled sync type in SyncState::apply");
    }
    return out;
}

SyncOutcome
SyncState::finish(uint32_t tid, double now)
{
    RPPM_ASSERT(tid < numThreads_ && !finished_[tid]);
    SyncOutcome out;
    finished_[tid] = true;
    finishTime_[tid] = now;
    auto it = joinWaiters_.find(tid);
    if (it != joinWaiters_.end()) {
        for (uint32_t joiner : it->second) {
            blocked_[joiner] = false;
            pendingJoins_.erase(joiner);
            out.released.emplace_back(joiner, now);
        }
        joinWaiters_.erase(it);
    }
    return out;
}

} // namespace rppm
