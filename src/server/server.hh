/**
 * @file
 * rppmd — the prediction-as-a-service daemon core.
 *
 * RppmServer listens on a Unix-domain socket, speaks the framed wire
 * protocol of server/protocol.hh, and serves (workload x config-grid)
 * prediction requests from a warm in-process state that a one-shot
 * `rppm_study` run has to rebuild every time:
 *
 *  - an *artifact store* of WorkloadSources keyed by suite name or
 *    trace path. Trace files are mmap'd through loadTraceViewFromFile,
 *    so a cold request against a profiled-elsewhere RPPMTRC costs no
 *    read I/O and every request shares one page-cache image;
 *  - the two-tier ProfileCache (memory + optional serialized artifacts
 *    on disk), optionally byte-budgeted via maxProfileBytes;
 *  - a cross-request PredictionMemoPool, optionally byte-budgeted via
 *    maxMemoBytes, so repeat queries reuse StatStack bundles, phase-1
 *    thread evaluations and phase-2 sync executions across clients.
 *
 * Scheduling: each request's grid cells join one FIFO queue, one cell
 * per work item, and each worker pops the oldest cell. Cells of
 * concurrent requests that share a phase-1 key race on the
 * engine's single-flight memo: one evaluates, the others wait for it
 * and reuse the result. Results are streamed to each client as cells
 * complete.
 *
 * Predictions are produced by exactly the code path Study::run() uses
 * (WorkloadSource::profile through the cache, then
 * PredictionMemo::predict), so daemon results are bit-identical to an
 * in-process study of the same request — asserted by tests/test_server
 * and the CI smoke job.
 *
 * Threading: one accept thread, one reader thread per connection
 * (decodes, resolves workloads and profiles — the profile cache's
 * per-key future dedupes concurrent profiling), N prediction workers,
 * and writes to a connection serialized by a per-connection mutex.
 * stop() drains: no new connections, readers wind down, every enqueued
 * cell completes and is delivered, then workers exit. All shared state
 * is either immutable-after-publish (sources, profiles) or
 * mutex-guarded; tests/test_server runs this machinery under
 * ThreadSanitizer.
 */

#ifndef RPPM_SERVER_SERVER_HH
#define RPPM_SERVER_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.hh"
#include "rppm/memo.hh"
#include "server/protocol.hh"
#include "study/profile_cache.hh"
#include "study/source.hh"

namespace rppm {
namespace server {

struct ServerOptions
{
    /** Filesystem path of the listening socket (required; an existing
     *  socket file at this path is replaced). */
    std::string socketPath;

    /** Name reported in HelloOk. */
    std::string serverName = "rppmd";

    /** Serialized-profile directory ("" = memory-only cache). */
    std::string profileDirectory;

    /** Byte budget of the in-memory profile tier (0 = unlimited). */
    uint64_t maxProfileBytes = 0;

    /** Byte budget of the prediction memo pool (0 = unlimited). */
    uint64_t maxMemoBytes = 0;

    /** Prediction worker threads (0 = all hardware threads). */
    unsigned workers = 1;

    /** Trace-synthesis / profiler jobs per profiling run (0 = all
     *  hardware threads). */
    unsigned jobs = 1;

    /** When > 0, file-backed workloads are profiled out-of-core with
     *  this chunk size (records per thread per chunk) regardless of
     *  file size; 0 keeps the automatic size-based routing. Execution
     *  policy only — profile bytes and cache artifacts are identical
     *  either way. */
    uint64_t streamChunkRecords = 0;

    /** Reap a connection after this many seconds with no readable data
     *  and no outstanding requests (0 = never). Keeps abandoned clients
     *  from pinning reader threads and fds forever. */
    unsigned idleTimeoutSec = 300;

    /** Admission bound on enqueued-but-unfinished grid cells. A Request
     *  that would push the queue beyond this is refused with Busy
     *  (carrying busyRetryMs) instead of being admitted — bounded queue,
     *  bounded latency. 0 = unbounded. */
    uint64_t maxQueuedCells = 0;

    /** Retry hint carried in Busy replies. */
    uint32_t busyRetryMs = 50;

    /** Combined byte budget over the profile cache and the memo pool
     *  (0 = none). When exceeded, the server degrades gracefully:
     *  profile-cache residency is shed first (profiles reload from the
     *  serialized tier or recompute), then memo residency — dropping
     *  speed, never results. */
    uint64_t maxResidentBytes = 0;

    /** Invoked (from a reader thread) when a client sends Shutdown.
     *  The daemon main loop typically wakes itself here and calls
     *  stop(); the server never stops itself mid-callback. */
    std::function<void()> onShutdownRequest;
};

class RppmServer
{
  public:
    explicit RppmServer(ServerOptions opts);
    ~RppmServer();

    RppmServer(const RppmServer &) = delete;
    RppmServer &operator=(const RppmServer &) = delete;

    /** Bind, listen and spin up the accept/worker threads. Throws
     *  std::runtime_error on socket errors (path too long, bind
     *  failure). */
    void start();

    /**
     * Drain and shut down: stop accepting, wind down connection
     * readers, complete and deliver every already-enqueued cell, then
     * stop the workers and close all sockets. Idempotent; called by
     * the destructor if needed.
     */
    void stop() RPPM_EXCLUDES(connMutex_);

    bool running() const { return running_; }

    const ServerOptions &options() const { return opts_; }

    /** Aggregate service counters (all monotonic except the nested
     *  resident-bytes gauges). */
    struct Stats
    {
        uint64_t connections = 0; ///< connections accepted
        uint64_t requests = 0;    ///< Request messages admitted
        uint64_t cells = 0;       ///< grid cells evaluated
        /** Cells dequeued by the workers, failed ones included. Equal
         *  to cells when nothing failed; kept so cells/batches stays a
         *  readable 1.0 for callers that still divide by it. */
        uint64_t batches = 0;
        uint64_t shed = 0;        ///< requests refused with Busy
        uint64_t deadlineExpired = 0; ///< requests failed on deadline
        uint64_t idleReaped = 0;  ///< connections closed for idleness
        ProfileCache::Stats profile;
        PredictionMemoPool::PoolStats memo;
    };
    Stats stats() const;

  private:
    struct Connection;
    struct RequestState;
    struct Cell
    {
        std::shared_ptr<RequestState> req;
        uint64_t index = 0; ///< into RequestState::configs
    };

    /** Outcome of waiting for socket readability. */
    enum class Wait
    {
        Readable,
        Stop,
        Timeout,
    };

    void acceptLoop() RPPM_EXCLUDES(connMutex_);
    void serveConnection(const std::shared_ptr<Connection> &conn);
    void handleRequest(const std::shared_ptr<Connection> &conn,
                       const std::string &payload);
    WorkloadSource resolveWorkload(WorkloadRefKind kind,
                                   const std::string &name)
        RPPM_EXCLUDES(artMutex_);
    void enqueue(const std::shared_ptr<RequestState> &req);
    void workerLoop();
    void runCell(const Cell &cell);
    Wait waitReadable(int fd, int timeoutMs) const;
    void enforceResidentBudget();

    ServerOptions opts_;
    ProfileCache cache_;
    PredictionMemoPool pool_;

    int listenFd_ = -1;
    int stopPipe_[2] = {-1, -1};
    std::atomic<bool> running_{false};
    bool started_ = false;

    std::thread acceptThread_;
    std::vector<std::thread> workers_;

    mutable Mutex connMutex_;
    std::vector<std::shared_ptr<Connection>> conns_
        RPPM_GUARDED_BY(connMutex_);
    std::vector<std::thread> readers_ RPPM_GUARDED_BY(connMutex_);

    mutable Mutex artMutex_;
    std::map<std::string, WorkloadSource> artifacts_
        RPPM_GUARDED_BY(artMutex_);

    // --- Cell queue: admitted cells in FIFO order. pendingCells_
    // counts enqueued-but-unfinished cells so stop() can drain.
    // std::mutex: std::condition_variable needs std::unique_lock of it.
    mutable std::mutex qMutex_;
    std::condition_variable qCv_;
    std::condition_variable drainCv_;
    std::deque<Cell> queue_;
    uint64_t pendingCells_ = 0;
    bool workersStop_ = false;

    std::atomic<uint64_t> connections_{0};
    std::atomic<uint64_t> requests_{0};
    std::atomic<uint64_t> cells_{0};
    std::atomic<uint64_t> batches_{0};
    std::atomic<uint64_t> shed_{0};
    std::atomic<uint64_t> deadlineExpired_{0};
    std::atomic<uint64_t> idleReaped_{0};
};

} // namespace server
} // namespace rppm

#endif // RPPM_SERVER_SERVER_HH
