/**
 * @file
 * Tests for the rppmd serving stack (src/server):
 *
 *  - wire-protocol codecs round-trip and reject malformed payloads
 *    (trailing garbage, wrong container version) like the file loaders;
 *  - frame transport handles clean EOF, short reads, bad magic and
 *    hostile lengths over a real socketpair;
 *  - the daemon negotiates versions, reports request-level errors
 *    without dropping the connection, serves mmap'd trace files, and
 *    drains cleanly on stop();
 *  - the acceptance bar: four concurrent clients sweeping all 26 suite
 *    kernels receive results bit-identical to an in-process
 *    Study::run() of the same grid, while profiles and prediction
 *    memos are shared across clients.
 *
 * Everything runs the server in-process, so the tsan CI shard can put
 * the full accept/reader/worker machinery under ThreadSanitizer.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "arch/config.hh"
#include "server/client.hh"
#include "server/protocol.hh"
#include "server/server.hh"
#include "study/study.hh"
#include "trace/trace_io.hh"
#include "workload/suite.hh"
#include "workload/workload.hh"

namespace rppm {
namespace server {
namespace {

/** Per-test socket path, unique per process to survive parallel ctest. */
std::string
socketPathFor(const char *tag)
{
    return "/tmp/rppm_test_" + std::string(tag) + "_" +
           std::to_string(static_cast<unsigned long>(::getpid())) + ".sock";
}

/** Light profiling so the suite-wide tests stay fast; the options ride
 *  the wire, keeping daemon and local reference on the same profile. */
ProfilerOptions
lightProfiler()
{
    ProfilerOptions opts;
    opts.microTraceLength = 100;
    opts.microTraceInterval = 2000;
    return opts;
}

/** A connected AF_UNIX stream fd for raw protocol pokes. */
int
rawConnect(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    return fd;
}

// ------------------------------------------------------ payload codecs ---

TEST(Protocol, RequestRoundTripsEveryField)
{
    RequestMsg req;
    req.id = 42;
    req.kind = WorkloadRefKind::TracePath;
    req.workload = "/tmp/some_trace.rppmtrc";
    req.profiler = lightProfiler();
    req.profiler.detectInvalidation = false;
    req.rppm.sync.syncOpCost = 17.5;
    req.rppm.eq1.mlpOverlap = false;
    req.rppm.eq1.branch = false;
    req.deadlineMs = 1500; // v2 field
    req.configs = tableIvConfigs();
    const auto hetero = heterogeneousConfigs();
    req.configs.push_back(hetero.front()); // heterogeneous cores + mapping

    const RequestMsg out = decodeRequest(encodeRequest(req));
    EXPECT_EQ(out.id, req.id);
    EXPECT_EQ(out.kind, req.kind);
    EXPECT_EQ(out.workload, req.workload);
    EXPECT_EQ(out.evaluator, req.evaluator);
    EXPECT_EQ(out.profiler.microTraceLength, req.profiler.microTraceLength);
    EXPECT_EQ(out.profiler.microTraceInterval,
              req.profiler.microTraceInterval);
    EXPECT_EQ(out.profiler.detectInvalidation,
              req.profiler.detectInvalidation);
    EXPECT_EQ(out.rppm.sync.syncOpCost, req.rppm.sync.syncOpCost);
    EXPECT_EQ(out.rppm.eq1.mlpOverlap, req.rppm.eq1.mlpOverlap);
    EXPECT_EQ(out.rppm.eq1.branch, req.rppm.eq1.branch);
    EXPECT_EQ(out.rppm.eq1.ilpReplay, req.rppm.eq1.ilpReplay);
    EXPECT_EQ(out.deadlineMs, req.deadlineMs);
    ASSERT_EQ(out.configs.size(), req.configs.size());
    for (size_t i = 0; i < req.configs.size(); ++i)
        EXPECT_TRUE(out.configs[i] == req.configs[i]) << i;
}

TEST(Protocol, ResultAndControlRoundTrips)
{
    ResultMsg res;
    res.id = 7;
    res.cell = 3;
    res.config = "Base";
    res.cycles = 6109801.7816641219;
    res.seconds = 0.0024439207126656487;
    res.threadSeconds = {0.1, 0.2, 0.3, 0.4};
    const ResultMsg r = decodeResult(encodeResult(res));
    EXPECT_EQ(r.id, res.id);
    EXPECT_EQ(r.cell, res.cell);
    EXPECT_EQ(r.config, res.config);
    EXPECT_EQ(r.cycles, res.cycles);
    EXPECT_EQ(r.seconds, res.seconds);
    EXPECT_EQ(r.threadSeconds, res.threadSeconds);

    const HelloMsg hello = decodeHello(encodeHello({"test-client"}));
    EXPECT_EQ(hello.clientName, "test-client");
    const HelloOkMsg ok = decodeHelloOk(encodeHelloOk({"rppmd", 1}));
    EXPECT_EQ(ok.serverName, "rppmd");
    EXPECT_EQ(ok.version, 1u);
    const DoneMsg done = decodeDone(encodeDone({9, 26}));
    EXPECT_EQ(done.id, 9u);
    EXPECT_EQ(done.cells, 26u);
    const ErrorMsg err = decodeError(encodeError({3, "no such workload"}));
    EXPECT_EQ(err.id, 3u);
    EXPECT_EQ(err.message, "no such workload");
    const BusyMsg busy = decodeBusy(encodeBusy({11, 250}));
    EXPECT_EQ(busy.id, 11u);
    EXPECT_EQ(busy.retryAfterMs, 250u);
    decodeShutdown(encodeShutdown()); // must not throw
}

TEST(Protocol, RejectsTrailingGarbageInPayload)
{
    EXPECT_THROW(decodeHello(encodeHello({"x"}) + "junk"),
                 std::invalid_argument);
    EXPECT_THROW(decodeDone(encodeDone({1, 2}) + "junk"),
                 std::invalid_argument);
}

TEST(Protocol, RejectsWrongContainerVersion)
{
    // The version field sits after the 8-byte magic and the 4-byte
    // endianness marker, exactly as in the RPPMTRC container.
    std::string payload = encodeHello({"x"});
    payload[12] = static_cast<char>(kWireVersion + 1);
    EXPECT_THROW(decodeHello(payload), std::invalid_argument);
}

// ------------------------------------------------------ frame transport ---

TEST(Protocol, FrameRoundTripOverSocketpair)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const std::string payload = encodeHello({"pair"});
    writeFrame(fds[0], MsgType::Hello, payload);
    Frame frame;
    ASSERT_TRUE(readFrame(fds[1], frame));
    EXPECT_EQ(frame.type, MsgType::Hello);
    EXPECT_EQ(frame.payload, payload);

    // Closing the writer yields a clean EOF at the frame boundary.
    ::close(fds[0]);
    EXPECT_FALSE(readFrame(fds[1], frame));
    ::close(fds[1]);
}

TEST(Protocol, RejectsBadFrameMagic)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const char junk[16] = "immaterialjunk!";
    ASSERT_EQ(::write(fds[0], junk, sizeof(junk)), 16);
    ::close(fds[0]);
    Frame frame;
    EXPECT_THROW(readFrame(fds[1], frame), ProtocolError);
    ::close(fds[1]);
}

TEST(Protocol, ShortReadMidFrameThrows)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const std::string payload = encodeHello({"short"});
    // A valid header promising more bytes than we deliver.
    struct
    {
        uint32_t magic = kFrameMagic;
        uint32_t type = static_cast<uint32_t>(MsgType::Hello);
        uint64_t len;
    } header;
    header.len = payload.size();
    ASSERT_EQ(::write(fds[0], &header, sizeof(header)),
              static_cast<ssize_t>(sizeof(header)));
    ASSERT_EQ(::write(fds[0], payload.data(), 3), 3);
    ::close(fds[0]); // EOF mid-payload
    Frame frame;
    EXPECT_THROW(readFrame(fds[1], frame), ProtocolError);
    ::close(fds[1]);
}

TEST(Protocol, RejectsHostilePayloadLengthBeforeAllocating)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    struct
    {
        uint32_t magic = kFrameMagic;
        uint32_t type = static_cast<uint32_t>(MsgType::Hello);
        uint64_t len = kMaxFramePayload + 1;
    } header;
    ASSERT_EQ(::write(fds[0], &header, sizeof(header)),
              static_cast<ssize_t>(sizeof(header)));
    Frame frame;
    EXPECT_THROW(readFrame(fds[1], frame), ProtocolError);
    ::close(fds[0]);
    ::close(fds[1]);
}

// ------------------------------------------------------- daemon sessions ---

TEST(Server, NegotiatesAndReportsStats)
{
    ServerOptions opts;
    opts.socketPath = socketPathFor("nego");
    RppmServer server(opts);
    server.start();

    RppmClient client;
    client.connect(opts.socketPath, "test");
    EXPECT_EQ(client.serverName(), "rppmd");
    client.close();

    server.stop();
    EXPECT_EQ(server.stats().connections, 1u);
    EXPECT_FALSE(std::filesystem::exists(opts.socketPath));
}

TEST(Server, RejectsVersionMismatchWithError)
{
    ServerOptions opts;
    opts.socketPath = socketPathFor("vers");
    RppmServer server(opts);
    server.start();

    const int fd = rawConnect(opts.socketPath);
    std::string hello = encodeHello({"future-client"});
    hello[12] = static_cast<char>(kWireVersion + 1);
    writeFrame(fd, MsgType::Hello, hello);
    Frame frame;
    ASSERT_TRUE(readFrame(fd, frame));
    EXPECT_EQ(frame.type, MsgType::Error);
    EXPECT_EQ(decodeError(frame.payload).id, 0u); // connection-level
    ::close(fd);
    server.stop();
}

TEST(Server, MalformedFrameGetsConnectionError)
{
    ServerOptions opts;
    opts.socketPath = socketPathFor("mal");
    RppmServer server(opts);
    server.start();

    const int fd = rawConnect(opts.socketPath);
    const char junk[16] = "notaframeheader";
    ASSERT_EQ(::write(fd, junk, sizeof(junk)), 16);
    Frame frame;
    ASSERT_TRUE(readFrame(fd, frame));
    EXPECT_EQ(frame.type, MsgType::Error);
    EXPECT_EQ(decodeError(frame.payload).id, 0u);
    ::close(fd);
    server.stop();
}

TEST(Server, UnknownWorkloadIsRequestLevelError)
{
    ServerOptions opts;
    opts.socketPath = socketPathFor("err");
    RppmServer server(opts);
    server.start();

    RppmClient client;
    client.connect(opts.socketPath);
    Query bad;
    bad.workload = "no-such-benchmark";
    bad.configs = {baseConfig()};
    EXPECT_THROW(client.evaluate(bad), std::runtime_error);

    // The connection survives request-level failures.
    Query good;
    good.workload = "backprop";
    good.profiler = lightProfiler();
    good.configs = {baseConfig()};
    const auto results = client.evaluate(good);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_GT(results[0].cycles, 0.0);
    EXPECT_EQ(results[0].config, "Base");

    client.close();
    server.stop();
    EXPECT_EQ(server.stats().requests, 1u); // the bad one was never admitted
}

TEST(Server, ServesMmapTraceFilesIdenticallyToLocalStudy)
{
    WorkloadSpec spec = barrierLoopSpec(3, 4, 2500);
    spec.name = "served-trace";
    spec.csPerEpoch = 2;
    const ColumnarTrace trace = synthesizeTrace(spec);
    const std::string tracePath =
        socketPathFor("tracefile") + ".rppmtrc";
    saveTraceToFile(trace, tracePath);

    // The in-process reference: a Study over the same mmap'd view.
    Study study;
    study.add(WorkloadSource(loadTraceViewFromFile(tracePath)));
    study.addConfigs(tableIvConfigs());
    study.addEvaluator("rppm");
    study.profilerOptions(lightProfiler());
    const StudyResult local = study.run();

    ServerOptions opts;
    opts.socketPath = socketPathFor("trace");
    opts.workers = 2;
    RppmServer server(opts);
    server.start();

    RppmClient client;
    client.connect(opts.socketPath);
    Query query;
    query.kind = WorkloadRefKind::TracePath;
    query.workload = tracePath;
    query.profiler = lightProfiler();
    query.configs = tableIvConfigs();
    const auto results = client.evaluate(query);

    ASSERT_EQ(results.size(), query.configs.size());
    for (size_t i = 0; i < results.size(); ++i) {
        const Evaluation &ref = local.at(
            "served-trace", query.configs[i].name, "rppm");
        EXPECT_EQ(results[i].cycles, ref.cycles) << query.configs[i].name;
        EXPECT_EQ(results[i].seconds, ref.seconds);
        EXPECT_EQ(results[i].threadSeconds, ref.threadSeconds);
    }
    client.close();
    server.stop();
    std::filesystem::remove(tracePath);
}

TEST(Server, ConcurrentClientsBitIdenticalToStudyOnAllKernels)
{
    // The acceptance bar of the subsystem: four concurrent clients
    // sweep every kernel of the 26-benchmark suite and every result
    // must equal an in-process Study::run() bit for bit.
    const std::vector<SuiteEntry> suite = fullSuite();
    const std::vector<MulticoreConfig> configs = {baseConfig(),
                                                  tableIvConfigs().front()};

    Study study;
    study.addSuite(suite);
    study.addConfigs(configs);
    study.addEvaluator("rppm");
    study.profilerOptions(lightProfiler());
    const StudyResult local = study.run();

    ServerOptions opts;
    opts.socketPath = socketPathFor("hammer");
    opts.workers = 2;
    RppmServer server(opts);
    server.start();

    constexpr int kClients = 4;
    std::vector<std::vector<std::pair<std::string, std::vector<CellResult>>>>
        byClient(kClients);
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            try {
                RppmClient client;
                client.connect(opts.socketPath);
                // Round-robin kernel split across the clients.
                for (size_t i = c; i < suite.size(); i += kClients) {
                    Query query;
                    query.workload = suite[i].spec.name;
                    query.profiler = lightProfiler();
                    query.configs = configs;
                    byClient[c].emplace_back(query.workload,
                                             client.evaluate(query));
                }
            } catch (const std::exception &) {
                ++failures;
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    EXPECT_EQ(failures.load(), 0);

    size_t checked = 0;
    for (const auto &results : byClient) {
        for (const auto &[workload, cells] : results) {
            ASSERT_EQ(cells.size(), configs.size());
            for (size_t i = 0; i < cells.size(); ++i) {
                const Evaluation &ref =
                    local.at(workload, configs[i].name, "rppm");
                EXPECT_EQ(cells[i].cycles, ref.cycles)
                    << workload << "/" << configs[i].name;
                EXPECT_EQ(cells[i].seconds, ref.seconds);
                EXPECT_EQ(cells[i].threadSeconds, ref.threadSeconds);
                ++checked;
            }
        }
    }
    EXPECT_EQ(checked, suite.size() * configs.size());

    // Cross-client reuse: every kernel profiled exactly once, one
    // engine per profile, no evictions without a budget.
    const RppmServer::Stats stats = server.stats();
    EXPECT_EQ(stats.requests, suite.size());
    EXPECT_EQ(stats.cells, suite.size() * configs.size());
    EXPECT_EQ(stats.profile.misses, suite.size());
    EXPECT_EQ(stats.profile.evictions, 0u);
    EXPECT_EQ(stats.memo.engines, suite.size());
    server.stop();
}

TEST(Server, WarmRepeatRequestsShareProfilesAndMemos)
{
    ServerOptions opts;
    opts.socketPath = socketPathFor("warm");
    RppmServer server(opts);
    server.start();

    Query query;
    query.workload = "backprop";
    query.profiler = lightProfiler();
    query.configs = tableIvConfigs();

    RppmClient client;
    client.connect(opts.socketPath);
    const auto cold = client.evaluate(query);
    const auto warm = client.evaluate(query);
    ASSERT_EQ(cold.size(), warm.size());
    for (size_t i = 0; i < cold.size(); ++i) {
        EXPECT_EQ(cold[i].cycles, warm[i].cycles);
        EXPECT_EQ(cold[i].threadSeconds, warm[i].threadSeconds);
    }
    client.close();
    server.stop();

    const RppmServer::Stats stats = server.stats();
    EXPECT_EQ(stats.profile.misses, 1u);
    EXPECT_GE(stats.profile.memoryHits, 1u); // the repeat was free
    EXPECT_EQ(stats.memo.engines, 1u);
}

TEST(Server, ShutdownMessageInvokesCallback)
{
    std::atomic<bool> requested{false};
    ServerOptions opts;
    opts.socketPath = socketPathFor("shut");
    opts.onShutdownRequest = [&] { requested = true; };
    RppmServer server(opts);
    server.start();

    RppmClient client;
    client.connect(opts.socketPath);
    client.shutdownServer();
    // The Shutdown frame is processed by the reader before stop()'s
    // drain joins it, so after stop() the callback must have fired.
    Query query;
    query.workload = "backprop";
    query.profiler = lightProfiler();
    query.configs = {baseConfig()};
    client.evaluate(query); // round-trip orders the Shutdown before stop
    client.close();
    server.stop();
    EXPECT_TRUE(requested.load());
}

TEST(Server, IdleConnectionsAreReaped)
{
    ServerOptions opts;
    opts.socketPath = socketPathFor("idle");
    opts.idleTimeoutSec = 1;
    RppmServer server(opts);
    server.start();

    RppmClient client;
    client.connect(opts.socketPath);

    // Sit quiet past the timeout: the reader reaps the connection
    // (Error id 0, then close) instead of pinning a thread and an fd
    // for an abandoned client forever.
    std::this_thread::sleep_for(std::chrono::milliseconds(1600));
    Query query;
    query.workload = "backprop";
    query.profiler = lightProfiler();
    query.configs = {baseConfig()};
    EXPECT_THROW(client.evaluate(query), std::exception);
    client.close();

    // An active connection is untouched by the same timeout.
    RppmClient busy;
    busy.connect(opts.socketPath);
    const auto results = busy.evaluate(query);
    EXPECT_EQ(results.size(), 1u);
    busy.close();

    server.stop();
    EXPECT_EQ(server.stats().idleReaped, 1u);
}

TEST(Server, StopDrainsAdmittedRequests)
{
    ServerOptions opts;
    opts.socketPath = socketPathFor("drain");
    RppmServer server(opts);
    server.start();

    RppmClient client;
    client.connect(opts.socketPath);
    Query query;
    query.workload = "backprop";
    query.profiler = lightProfiler();
    query.configs = tableIvConfigs();

    // Evaluate from a helper thread while the main thread stops the
    // server: whichever side wins the race, the client either receives
    // every cell of an admitted request or a clean connection error —
    // never a hang or a torn frame.
    std::atomic<bool> ok{false};
    std::thread t([&] {
        try {
            const auto results = client.evaluate(query);
            ok = results.size() == query.configs.size();
        } catch (const std::exception &) {
            ok = true; // request never admitted: clean refusal
        }
    });
    server.stop();
    t.join();
    EXPECT_TRUE(ok.load());
    client.close();
}

} // namespace
} // namespace server
} // namespace rppm
