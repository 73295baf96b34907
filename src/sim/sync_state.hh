/**
 * @file
 * Dynamic synchronization semantics shared by the simulator.
 *
 * SyncState tracks barriers, mutexes, condvar-implemented barriers,
 * producer-consumer queues and thread create/join at runtime. The
 * simulator consults it while interleaving threads; who blocks depends on
 * dynamic arrival order, which is exactly the microarchitecture-dependent
 * behaviour RPPM has to predict from a microarchitecture-independent
 * profile.
 */

#ifndef RPPM_SIM_SYNC_STATE_HH
#define RPPM_SIM_SYNC_STATE_HH

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "trace/trace.hh"

namespace rppm {

/** Result of presenting a sync event to SyncState. */
struct SyncOutcome
{
    bool blocks = false;         ///< thread must wait
    /** Threads released by this event (tid, release time). */
    std::vector<std::pair<uint32_t, double>> released;
};

/**
 * Runtime synchronization state machine.
 *
 * All times are global simulated cycles. The caller (simulator or model)
 * is responsible for advancing thread clocks; SyncState only decides who
 * blocks and who wakes when.
 */
class SyncState
{
  public:
    /**
     * @param num_threads total thread count
     * @param barrier_population participants per barrier id (both classic
     *        and condvar-implemented barriers), precomputed from the trace
     */
    SyncState(uint32_t num_threads,
              std::unordered_map<uint32_t, uint32_t> barrier_population);

    /**
     * Present sync event (@p type, @p arg) by thread @p tid at time
     * @p now. The outcome lists any threads released at their release
     * times.
     */
    SyncOutcome apply(uint32_t tid, SyncType type, uint32_t arg,
                      double now);

    /** Mark thread @p tid finished at @p now; may release joiners. */
    SyncOutcome finish(uint32_t tid, double now);

    /** True if @p tid currently blocked. */
    bool blocked(uint32_t tid) const { return blocked_[tid]; }

    /** Number of participants for barrier/condbarrier @p id. */
    uint32_t barrierPopulation(uint32_t id) const;

  private:
    struct Barrier
    {
        uint32_t arrived = 0;
        double maxArrival = 0.0;
        std::vector<uint32_t> waiters;
    };
    struct Mutex
    {
        bool held = false;
        uint32_t owner = 0;
        std::deque<uint32_t> waiters;
    };
    struct Queue
    {
        /** Push time of each buffered item: a consumer cannot observe an
         *  item before it was produced, even when coarse symbolic time
         *  steps apply the pop "earlier" than the push. */
        std::deque<double> itemTimes;
        std::deque<uint32_t> waiters;
    };

    uint32_t numThreads_;
    std::unordered_map<uint32_t, uint32_t> barrierPopulation_;
    std::unordered_map<uint32_t, Barrier> barriers_;
    std::unordered_map<uint32_t, Barrier> condBarriers_;
    std::unordered_map<uint32_t, Mutex> mutexes_;
    std::unordered_map<uint32_t, Queue> queues_;
    std::vector<bool> finished_;
    std::vector<bool> blocked_;
    std::vector<double> finishTime_;
    /** joiner tid -> joined tid for threads blocked in join. */
    std::unordered_map<uint32_t, uint32_t> pendingJoins_;
    /** joined tid -> waiting joiners. */
    std::unordered_map<uint32_t, std::vector<uint32_t>> joinWaiters_;
};

} // namespace rppm

#endif // RPPM_SIM_SYNC_STATE_HH
