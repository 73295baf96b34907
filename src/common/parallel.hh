/**
 * @file
 * Minimal worker-pool executor shared by every parallel subsystem.
 *
 * Runs `count` index-addressed tasks on up to `jobs` std::threads.
 * Because tasks are identified by index and write their results into
 * pre-sized slots, the output ordering is deterministic regardless of
 * scheduling: the same computation run with 1 worker and with 16 workers
 * yields byte-identical results.
 *
 * Users: the Study grid executor (study/study.cc), the profiler's chunk
 * pipeline (profile/profiler_stream.cc, through WorkDeque), the parallel
 * simulator (sim/simulator_parallel.cc), the columnar conversion
 * (trace/columnar.cc) and parallel trace synthesis (workload/workload.cc).
 */

#ifndef RPPM_COMMON_PARALLEL_HH
#define RPPM_COMMON_PARALLEL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rppm {

class ParallelExecutor
{
  public:
    /** @p jobs worker threads; 0 picks std::thread::hardware_concurrency. */
    explicit ParallelExecutor(unsigned jobs = 1);

    /** The resolved worker count (>= 1). */
    unsigned jobs() const { return jobs_; }

    /**
     * Invoke @p fn(i) for every i in [0, count). With jobs() == 1 the
     * calls happen inline, in order; otherwise worker threads pull
     * indices from a shared counter. The first exception thrown by any
     * task is rethrown here after all workers have stopped (remaining
     * tasks are abandoned).
     */
    void forEach(size_t count, const std::function<void(size_t)> &fn) const;

  private:
    unsigned jobs_;
};

/** Resolve a jobs knob: 0 = all hardware threads, otherwise the value. */
unsigned resolveJobs(unsigned jobs);

/**
 * A small shared work deque for software-pipelined stages.
 *
 * ParallelExecutor::forEach is a barrier: it returns only when every
 * task of one homogeneous batch is done, so two overlapping stages (the
 * profiler's phase-C bucketing of chunk k+1 against phase-D resolution
 * of chunk k) would serialize. WorkDeque instead tags each
 * task with a Group: post() enqueues onto one shared FIFO deque that
 * all workers drain regardless of group — the work *stealing* across
 * the stage boundary — and wait(group) blocks only until that group's
 * tasks finish, helping execute queued tasks (from any group) while it
 * waits instead of idling.
 *
 * With jobs == 1 no worker threads exist and post() runs the task
 * inline, in post order — the deterministic degenerate mode, mirroring
 * ParallelExecutor.
 *
 * Error contract: the first exception a group's task throws is captured
 * and rethrown by wait(group); once a group holds an error its not-yet-
 * started tasks are skipped (other groups are unaffected). Destroying
 * the deque abandons any tasks never waited on.
 */
class WorkDeque
{
  public:
    /** Completion tracker for one batch of related tasks. The caller
     *  owns it and must keep it alive until wait() returns. */
    class Group
    {
        friend class WorkDeque;
        size_t pending_ = 0;
        std::exception_ptr error_;
    };

    /** @p jobs worker threads; 0 picks hardware concurrency; 1 runs
     *  every post() inline with no threads at all. */
    explicit WorkDeque(unsigned jobs = 1);
    ~WorkDeque();

    WorkDeque(const WorkDeque &) = delete;
    WorkDeque &operator=(const WorkDeque &) = delete;

    /** The resolved worker-slot count (>= 1, counts the helping waiter). */
    unsigned jobs() const { return jobs_; }

    /** Enqueue @p fn under @p group. Never blocks (jobs > 1). */
    void post(Group &group, std::function<void()> fn);

    /** Drain @p group: execute queued tasks (any group) until all of
     *  @p group's tasks have finished, then rethrow its first error. */
    void wait(Group &group);

  private:
    struct Task
    {
        Group *group;
        std::function<void()> fn;
    };

    void runTask(Task &&task);
    void workerLoop();

    unsigned jobs_;
    // std::mutex: std::condition_variable needs std::unique_lock of it.
    std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<Task> tasks_;
    bool stop_ = false;
    std::vector<std::thread> workers_;
};

} // namespace rppm

#endif // RPPM_COMMON_PARALLEL_HH
