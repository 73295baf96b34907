#include "server/server.hh"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/assert.hh"
#include "workload/suite.hh"

namespace rppm {
namespace server {

// ------------------------------------------------------ connection state ---

/** One accepted socket. Frames are written under writeMutex so
 *  concurrent senders never interleave; the first failed write marks
 *  the peer dead and later sends become no-ops (a vanished client must
 *  not take the daemon down with it). */
struct RppmServer::Connection
{
    int fd = -1; ///< set before the connection is shared, const after
    Mutex writeMutex;
    std::atomic<bool> dead{false};
    /** Admitted requests whose Done/Error has not been delivered yet.
     *  The idle reaper only closes a connection when this is zero, so
     *  in-flight results are never orphaned by an idle timeout. */
    std::atomic<uint64_t> outstanding{0};

    ~Connection()
    {
        if (fd >= 0)
            ::close(fd);
    }

    void send(MsgType type, std::string_view payload)
        RPPM_EXCLUDES(writeMutex)
    {
        if (dead.load(std::memory_order_relaxed))
            return;
        MutexLock lock(writeMutex);
        writeLocked(type, payload);
    }

  private:
    void writeLocked(MsgType type, std::string_view payload)
        RPPM_REQUIRES(writeMutex)
    {
        if (dead.load(std::memory_order_relaxed))
            return;
        try {
            writeFrame(fd, type, payload);
        } catch (const std::exception &) {
            dead.store(true, std::memory_order_relaxed);
        }
    }
};

/** One admitted Request: its engine, options and config grid, plus the
 *  countdown that triggers the Done frame. Immutable after enqueue
 *  except for `remaining`. */
struct RppmServer::RequestState
{
    std::shared_ptr<Connection> conn;
    uint32_t id = 0;
    std::shared_ptr<PredictionMemo> engine;
    RppmOptions opts;
    std::vector<MulticoreConfig> configs;
    std::atomic<uint64_t> remaining{0};
    /** Deadline (steady clock) after which queued cells are abandoned;
     *  meaningful only when hasDeadline. */
    std::chrono::steady_clock::time_point deadline{};
    bool hasDeadline = false;
    /** Set by the first cell that fails (deadline or predict error);
     *  exactly one Error frame is sent, later cells are skipped, and no
     *  Done follows. The shared memo/cache state is untouched — only
     *  this request's delivery is abandoned. */
    std::atomic<bool> failed{false};
};

namespace {

void
sysFail(const std::string &what)
{
    throw std::runtime_error("rppm server: " + what + ": " +
                             std::strerror(errno));
}

} // namespace

// ------------------------------------------------------------- lifecycle ---

RppmServer::RppmServer(ServerOptions opts) : opts_(std::move(opts))
{
    RPPM_REQUIRE(!opts_.socketPath.empty(), "empty socket path");
    if (!opts_.profileDirectory.empty())
        cache_.setDirectory(opts_.profileDirectory);
    cache_.setMaxResidentBytes(opts_.maxProfileBytes);
    pool_.setMaxResidentBytes(opts_.maxMemoBytes);
}

RppmServer::~RppmServer()
{
    stop();
}

void
RppmServer::start()
{
    RPPM_REQUIRE(!started_, "server already started");

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opts_.socketPath.size() >= sizeof(addr.sun_path))
        throw std::runtime_error("rppm server: socket path too long: " +
                                 opts_.socketPath);
    std::memcpy(addr.sun_path, opts_.socketPath.c_str(),
                opts_.socketPath.size() + 1);

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listenFd_ < 0)
        sysFail("socket");
    ::unlink(opts_.socketPath.c_str());
    if (::bind(listenFd_, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) < 0) {
        ::close(listenFd_);
        listenFd_ = -1;
        sysFail("bind " + opts_.socketPath);
    }
    if (::listen(listenFd_, 64) < 0) {
        ::close(listenFd_);
        listenFd_ = -1;
        sysFail("listen");
    }
    if (::pipe(stopPipe_) < 0) {
        ::close(listenFd_);
        listenFd_ = -1;
        sysFail("pipe");
    }

    started_ = true;
    running_ = true;

    unsigned n = opts_.workers;
    if (n == 0)
        n = std::thread::hardware_concurrency();
    if (n == 0)
        n = 1;
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers_.emplace_back([this] { workerLoop(); });
    acceptThread_ = std::thread([this] { acceptLoop(); });
}

void
RppmServer::stop()
{
    if (!started_ || !running_.exchange(false))
        return;

    // 1. Wake the accept loop and every reader poll; no new work enters.
    {
        const char byte = 'x';
        ssize_t rc;
        do {
            rc = ::write(stopPipe_[1], &byte, 1);
        } while (rc < 0 && errno == EINTR);
    }
    if (acceptThread_.joinable())
        acceptThread_.join();
    std::vector<std::thread> readers;
    {
        MutexLock lock(connMutex_);
        readers.swap(readers_);
    }
    for (std::thread &t : readers)
        t.join();

    // 2. Drain: every admitted cell completes and its frames flush.
    {
        std::unique_lock<std::mutex> lock(qMutex_);
        drainCv_.wait(lock, [this] { return pendingCells_ == 0; });
        workersStop_ = true;
    }
    qCv_.notify_all();
    for (std::thread &t : workers_)
        t.join();
    workers_.clear();

    // 3. Tear down sockets.
    {
        MutexLock lock(connMutex_);
        conns_.clear();
    }
    ::close(listenFd_);
    listenFd_ = -1;
    ::close(stopPipe_[0]);
    ::close(stopPipe_[1]);
    stopPipe_[0] = stopPipe_[1] = -1;
    ::unlink(opts_.socketPath.c_str());
}

RppmServer::Stats
RppmServer::stats() const
{
    Stats out;
    out.connections = connections_.load();
    out.requests = requests_.load();
    out.cells = cells_.load();
    out.batches = batches_.load();
    out.shed = shed_.load();
    out.deadlineExpired = deadlineExpired_.load();
    out.idleReaped = idleReaped_.load();
    out.profile = cache_.stats();
    out.memo = pool_.poolStats();
    return out;
}

// ------------------------------------------------------------ accept/read ---

/** Block until @p fd is readable, stop is signalled, or @p timeoutMs
 *  elapses (-1 = no timeout). */
RppmServer::Wait
RppmServer::waitReadable(int fd, int timeoutMs) const
{
    for (;;) {
        pollfd fds[2] = {{fd, POLLIN, 0}, {stopPipe_[0], POLLIN, 0}};
        const int rc = ::poll(fds, 2, timeoutMs);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            return Wait::Stop;
        }
        if (rc == 0)
            return Wait::Timeout;
        if (fds[1].revents != 0)
            return Wait::Stop;
        if (fds[0].revents != 0)
            return Wait::Readable;
    }
}

void
RppmServer::acceptLoop()
{
    while (waitReadable(listenFd_, -1) == Wait::Readable) {
        const int fd =
            ::accept4(listenFd_, nullptr, nullptr, SOCK_CLOEXEC);
        if (fd < 0)
            continue;
        auto conn = std::make_shared<Connection>();
        conn->fd = fd;
        ++connections_;
        MutexLock lock(connMutex_);
        conns_.push_back(conn);
        readers_.emplace_back([this, conn] { serveConnection(conn); });
    }
}

void
RppmServer::serveConnection(const std::shared_ptr<Connection> &conn)
{
    // Idle policy: poll with a bounded timeout instead of forever. A
    // connection with nothing readable for idleTimeoutSec and no
    // outstanding requests is reaped — abandoned clients must not pin
    // reader threads and fds for the life of the daemon. While results
    // are still being delivered the timer just re-arms.
    const int idleMs = opts_.idleTimeoutSec == 0
                           ? -1
                           : static_cast<int>(opts_.idleTimeoutSec) * 1000;
    const auto waitOrReap = [&]() -> bool {
        for (;;) {
            switch (waitReadable(conn->fd, idleMs)) {
            case Wait::Readable:
                return true;
            case Wait::Stop:
                return false;
            case Wait::Timeout:
                if (conn->outstanding.load(std::memory_order_acquire) ==
                    0) {
                    ++idleReaped_;
                    conn->send(MsgType::Error,
                               encodeError({0, "idle timeout"}));
                    conn->dead = true;
                    return false;
                }
                break; // results in flight; keep waiting
            }
        }
    };

    try {
        // Handshake: the first frame must be a Hello whose payload
        // container carries a version we understand.
        Frame frame;
        if (!waitOrReap() || !readFrame(conn->fd, frame))
            return;
        if (frame.type != MsgType::Hello) {
            conn->send(MsgType::Error,
                       encodeError({0, "expected Hello"}));
            return;
        }
        decodeHello(frame.payload);
        conn->send(MsgType::HelloOk,
                   encodeHelloOk({opts_.serverName, kWireVersion}));

        while (waitOrReap() && readFrame(conn->fd, frame)) {
            switch (frame.type) {
            case MsgType::Request:
                handleRequest(conn, frame.payload);
                break;
            case MsgType::Shutdown:
                decodeShutdown(frame.payload);
                if (opts_.onShutdownRequest)
                    opts_.onShutdownRequest();
                break;
            default:
                conn->send(MsgType::Error,
                           encodeError({0, "unexpected message type"}));
                conn->dead = true;
                return;
            }
        }
    } catch (const std::exception &e) {
        // Malformed frame or payload: connection-level error, close.
        conn->send(MsgType::Error, encodeError({0, e.what()}));
        conn->dead = true;
    }
}

// --------------------------------------------------------------- requests ---

WorkloadSource
RppmServer::resolveWorkload(WorkloadRefKind kind, const std::string &name)
{
    const std::string key =
        (kind == WorkloadRefKind::SuiteName ? "name:" : "path:") + name;
    MutexLock lock(artMutex_);
    const auto it = artifacts_.find(key);
    if (it != artifacts_.end())
        return it->second;
    if (kind == WorkloadRefKind::SuiteName) {
        const auto entry = findBenchmark(name);
        if (!entry)
            throw std::invalid_argument("unknown suite benchmark '" +
                                        name + "'");
        return artifacts_.emplace(key, WorkloadSource(entry->spec))
            .first->second;
    }
    // Trace path: register the file without loading it. The source
    // indexes the container up front (structural defects fail the first
    // request), streams large files out-of-core at profile time, and
    // mmaps a zero-copy view only if an in-memory consumer asks; every
    // later request (from any client) shares the same source and the
    // profiles it feeds.
    return artifacts_.emplace(key, WorkloadSource::fromTraceFile(name))
        .first->second;
}

void
RppmServer::handleRequest(const std::shared_ptr<Connection> &conn,
                          const std::string &payload)
{
    // A decode failure here is a connection-level protocol error (we
    // may not even know the request id) and propagates to the caller.
    const RequestMsg req = decodeRequest(payload);

    // Load shedding: admission control happens before the expensive
    // profile step, against the bound on enqueued-but-unfinished cells.
    // A shed request costs the server almost nothing and tells the
    // client exactly how to behave (Busy + retry hint) instead of
    // letting the queue — and every client's latency — grow unbounded.
    if (opts_.maxQueuedCells > 0) {
        std::lock_guard<std::mutex> lock(qMutex_);
        if (pendingCells_ + req.configs.size() > opts_.maxQueuedCells) {
            ++shed_;
            conn->send(MsgType::Busy,
                       encodeBusy({req.id, opts_.busyRetryMs}));
            return;
        }
    }

    // From here on, failures are request-level: report them under the
    // request's id and keep the connection serving.
    try {
        if (req.evaluator != "rppm")
            throw std::invalid_argument("unknown evaluator '" +
                                        req.evaluator + "'");
        for (const MulticoreConfig &cfg : req.configs)
            cfg.validate();

        const WorkloadSource source =
            resolveWorkload(req.kind, req.workload);
        ProfilerOptions popts = req.profiler;
        popts.jobs = opts_.jobs;
        if (opts_.streamChunkRecords > 0)
            popts.streamChunkRecords = opts_.streamChunkRecords;
        // Heavy on a cold cache; the per-key future inside the cache
        // dedupes concurrent clients asking for the same profile.
        const auto profile = source.profile(popts, cache_);
        const auto engine = pool_.forProfile(profile);
        ++requests_;

        if (req.configs.empty()) {
            conn->send(MsgType::Done, encodeDone({req.id, 0}));
            return;
        }
        auto state = std::make_shared<RequestState>();
        state->conn = conn;
        state->id = req.id;
        state->engine = engine;
        state->opts = req.rppm;
        state->configs = req.configs;
        state->remaining = req.configs.size();
        if (req.deadlineMs > 0) {
            state->hasDeadline = true;
            state->deadline = std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(req.deadlineMs);
        }
        conn->outstanding.fetch_add(1, std::memory_order_acq_rel);
        enqueue(state);
        enforceResidentBudget();
    } catch (const std::exception &e) {
        conn->send(MsgType::Error, encodeError({req.id, e.what()}));
    }
}

void
RppmServer::enqueue(const std::shared_ptr<RequestState> &req)
{
    std::lock_guard<std::mutex> lock(qMutex_);
    pendingCells_ += req->configs.size();
    for (uint64_t i = 0; i < req->configs.size(); ++i)
        queue_.push_back(Cell{req, i});
    qCv_.notify_all();
}

// ---------------------------------------------------------------- workers ---

void
RppmServer::workerLoop()
{
    for (;;) {
        Cell cell;
        {
            std::unique_lock<std::mutex> lock(qMutex_);
            qCv_.wait(lock,
                      [this] { return workersStop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // workersStop_ and the queue is drained
            cell = std::move(queue_.front());
            queue_.pop_front();
        }
        ++batches_;
        runCell(cell);
        {
            std::lock_guard<std::mutex> lock(qMutex_);
            if (--pendingCells_ == 0)
                drainCv_.notify_all();
        }
        enforceResidentBudget();
    }
}

void
RppmServer::enforceResidentBudget()
{
    if (opts_.maxResidentBytes == 0)
        return;
    const uint64_t profile = cache_.stats().residentBytes;
    const uint64_t memo = pool_.poolStats().residentBytes;
    const uint64_t total = profile + memo;
    if (total <= opts_.maxResidentBytes)
        return;
    // Graceful degradation order: shed the profile tier first — a
    // profile reloads from its serialized artifact (or recomputes via
    // the self-healing miss path), while a dropped memo engine forfeits
    // every phase-1/phase-2 reuse it had accumulated. Only if profiles
    // alone cannot cover the overshoot does the memo tier shrink.
    uint64_t want = total - opts_.maxResidentBytes;
    const uint64_t freed = cache_.shedBytes(want);
    if (freed < want)
        pool_.shedBytes(want - freed);
}

void
RppmServer::runCell(const Cell &cell)
{
    RequestState &req = *cell.req;
    const MulticoreConfig &cfg = req.configs[cell.index];
    // A failed request's remaining cells are skipped, not evaluated:
    // exactly one Error frame is delivered (the exchange below ensures
    // that) and no Result/Done follows it, so the client never sees
    // frames for a request it already aborted. Crucially nothing here
    // touches the shared memo pool or profile cache on failure — an
    // expired deadline abandons delivery, never state.
    if (!req.failed.load(std::memory_order_acquire)) {
        const bool expired =
            req.hasDeadline &&
            std::chrono::steady_clock::now() >= req.deadline;
        if (expired) {
            if (!req.failed.exchange(true, std::memory_order_acq_rel)) {
                ++deadlineExpired_;
                req.conn->send(
                    MsgType::Error,
                    encodeError({req.id, "deadline exceeded"}));
            }
        } else {
            try {
                const RppmPrediction pred =
                    req.engine->predict(cfg, req.opts);
                ResultMsg res;
                res.id = req.id;
                res.cell = cell.index;
                res.config = cfg.name;
                res.cycles = pred.totalCycles;
                res.seconds = pred.totalSeconds;
                res.threadSeconds = pred.threadSeconds;
                ++cells_;
                if (!req.failed.load(std::memory_order_acquire))
                    req.conn->send(MsgType::Result, encodeResult(res));
            } catch (const std::exception &e) {
                // Configs were validated at admission, so this is
                // exceptional; the client aborts on the Error frame.
                if (!req.failed.exchange(true,
                                         std::memory_order_acq_rel))
                    req.conn->send(MsgType::Error,
                                   encodeError({req.id, e.what()}));
            }
        }
    }
    if (req.remaining.fetch_sub(1) == 1) {
        if (!req.failed.load(std::memory_order_acquire))
            req.conn->send(MsgType::Done,
                           encodeDone({req.id, req.configs.size()}));
        req.conn->outstanding.fetch_sub(1, std::memory_order_acq_rel);
    }
}

} // namespace server
} // namespace rppm
