/**
 * @file
 * Chaos suite: the fault-injection layer (common/fault.hh) driven
 * through every registered injection point end to end.
 *
 *  - plan parsing: trigger semantics, unknown points and malformed
 *    triggers rejected loudly, env-variable installation;
 *  - the io helpers under injected faults: sendFull/recvFull transfers
 *    stay byte-identical through partial sends and EINTR storms,
 *    writeFileAtomic survives ENOSPC without touching the target and
 *    leaves torn renames for the next reader's checksum to catch;
 *  - checksummed artifacts: a flipped byte or a torn tail in an RPPMTRC
 *    or RPPMPRF container is rejected as a checksum mismatch by the
 *    whole-file, view and streaming readers, while legacy version-1
 *    (pre-checksum) images still load;
 *  - the ProfileCache quarantines corrupt artifacts to *.corrupt and
 *    self-heals by recomputing and rewriting byte-identical bytes;
 *  - the daemon serves byte-identical results under a benign fault
 *    plan, fails deadline-expired requests without poisoning shared
 *    state, sheds load deterministically at the admission bound, and
 *    converges under concurrent shed/retry pressure (the hammer runs
 *    in the ThreadSanitizer CI shard).
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/config.hh"
#include "common/fault.hh"
#include "common/mmap.hh"
#include "profile/profiler.hh"
#include "profile_reference.hh"
#include "profile/serialize.hh"
#include "server/client.hh"
#include "server/server.hh"
#include "study/profile_cache.hh"
#include "study/study.hh"
#include "trace/trace_io.hh"
#include "trace/trace_stream.hh"
#include "workload/suite.hh"
#include "workload/workload.hh"

namespace rppm {
namespace {

/** Every test leaves the process-global plan disarmed, whatever
 *  happened: a leaked plan would silently chaos-test unrelated tests. */
class Chaos : public ::testing::Test
{
  protected:
    void TearDown() override { fault::clearPlan(); }
};

/** A unique, self-cleaning temp directory per test. */
class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
        : path_(std::filesystem::temp_directory_path() /
                ("rppm_chaos_test_" + tag + "_" +
                 std::to_string(static_cast<unsigned long>(::getpid()))))
    {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~TempDir() { std::filesystem::remove_all(path_); }
    std::string str() const { return path_.string(); }
    std::string file(const std::string &name) const
    {
        return (path_ / name).string();
    }

  private:
    std::filesystem::path path_;
};

std::string
readFileBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << path;
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

void
flipByteAt(const std::string &path, uint64_t offset)
{
    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good()) << path;
    f.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&byte, 1);
}

WorkloadSpec
chaosSpec(const char *name)
{
    WorkloadSpec spec = barrierLoopSpec(3, 4, 2500);
    spec.name = name;
    spec.csPerEpoch = 2;
    spec.kernel.sharedFrac = 0.2;
    return spec;
}

ProfilerOptions
lightProfiler()
{
    ProfilerOptions opts;
    opts.microTraceLength = 100;
    opts.microTraceInterval = 2000;
    return opts;
}

std::string
socketPathFor(const char *tag)
{
    return "/tmp/rppm_chaos_" + std::string(tag) + "_" +
           std::to_string(static_cast<unsigned long>(::getpid())) + ".sock";
}

// ------------------------------------------------------------ the plan ---

TEST_F(Chaos, PlanTriggersFireDeterministically)
{
    fault::installPlan("io.pread.short=every:3");
    EXPECT_TRUE(fault::armed());
    int fires = 0;
    for (int i = 0; i < 9; ++i)
        fires += fault::fire(fault::kPreadShort) ? 1 : 0;
    EXPECT_EQ(fires, 3);
    const fault::PointStats every = fault::pointStats(fault::kPreadShort);
    EXPECT_EQ(every.hits, 9u);
    EXPECT_EQ(every.fires, 3u);
    // Unarmed points never fire even while a plan is live.
    EXPECT_FALSE(fault::fire(fault::kRenameTorn));

    fault::installPlan("net.recv.eintr=once:2");
    std::vector<bool> hits;
    for (int i = 0; i < 5; ++i)
        hits.push_back(fault::fire(fault::kRecvEintr));
    EXPECT_EQ(hits, (std::vector<bool>{false, true, false, false, false}));

    fault::installPlan("net.send.partial=first:3");
    fires = 0;
    for (int i = 0; i < 5; ++i)
        fires += fault::fire(fault::kSendPartial) ? 1 : 0;
    EXPECT_EQ(fires, 3);

    // prob:100 always fires, prob:0 never; both draw from a seeded
    // stream so runs are reproducible.
    fault::installPlan("io.write.enospc=prob:100:7,fs.rename.torn=prob:0:7");
    for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(fault::fire(fault::kWriteEnospc));
        EXPECT_FALSE(fault::fire(fault::kRenameTorn));
    }

    fault::clearPlan();
    EXPECT_FALSE(fault::armed());
    EXPECT_FALSE(fault::fire(fault::kPreadShort));
}

TEST_F(Chaos, PlanRejectsUnknownPointsAndMalformedTriggers)
{
    // A typo must fail loudly, not arm nothing.
    EXPECT_THROW(fault::installPlan("io.pread.shrot=once:1"),
                 std::invalid_argument);
    EXPECT_THROW(fault::installPlan("io.pread.short"),
                 std::invalid_argument);
    EXPECT_THROW(fault::installPlan("io.pread.short=every"),
                 std::invalid_argument);
    EXPECT_THROW(fault::installPlan("io.pread.short=every:0"),
                 std::invalid_argument);
    EXPECT_THROW(fault::installPlan("io.pread.short=sometimes:3"),
                 std::invalid_argument);
    EXPECT_THROW(fault::installPlan("io.pread.short=prob:150:1"),
                 std::invalid_argument);
    EXPECT_THROW(fault::installPlan("io.pread.short=prob:50"),
                 std::invalid_argument);
    EXPECT_FALSE(fault::armed());

    // An empty spec clears the previous plan.
    fault::installPlan("io.pread.short=once:1");
    EXPECT_TRUE(fault::armed());
    fault::installPlan("");
    EXPECT_FALSE(fault::armed());

    // The registry exposes every point a plan may name.
    const std::vector<std::string> points = fault::knownPoints();
    EXPECT_EQ(points.size(), 5u);
    for (const std::string &point : points)
        fault::installPlan(point + "=once:1"); // each must parse
    fault::clearPlan();
}

TEST_F(Chaos, PlanInstallsFromEnvironment)
{
    ASSERT_EQ(::setenv("RPPM_FAULT_PLAN", "fs.rename.torn=once:1", 1), 0);
    EXPECT_TRUE(fault::installPlanFromEnv());
    EXPECT_TRUE(fault::armed());
    fault::clearPlan();

    ASSERT_EQ(::setenv("RPPM_FAULT_PLAN", "not-a-plan", 1), 0);
    EXPECT_THROW(fault::installPlanFromEnv(), std::invalid_argument);

    ASSERT_EQ(::unsetenv("RPPM_FAULT_PLAN"), 0);
    EXPECT_FALSE(fault::installPlanFromEnv());
}

// ----------------------------------------------------------- io helpers ---

TEST_F(Chaos, SendRecvFullByteIdenticalUnderInjectedFaults)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

    std::string payload(256 * 1024, '\0');
    for (size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<char>(i * 131 + 17);

    // first:N fires from the very first syscall, so the retry paths run
    // no matter how few calls the kernel needs for the transfer.
    fault::installPlan("net.send.partial=first:4,net.recv.eintr=first:3");
    std::thread sender([&] {
        const io::XferResult r =
            io::sendFull(fds[0], payload.data(), payload.size());
        EXPECT_EQ(r.status, io::XferResult::Ok);
    });
    std::string got(payload.size(), '\0');
    const io::XferResult r = io::recvFull(fds[1], got.data(), got.size());
    sender.join();
    EXPECT_EQ(r.status, io::XferResult::Ok);
    EXPECT_EQ(got, payload);
    EXPECT_GT(fault::pointStats(fault::kSendPartial).fires, 0u);
    EXPECT_GT(fault::pointStats(fault::kRecvEintr).fires, 0u);
    fault::clearPlan();

    // Peer close before the first byte is a clean Eof; mid-transfer it
    // is an error — a frame boundary is the only honest place to stop.
    ASSERT_EQ(::send(fds[0], "abc", 3, 0), 3);
    ::close(fds[0]);
    char head[3];
    EXPECT_EQ(io::recvFull(fds[1], head, 3).status, io::XferResult::Ok);
    char tail[4];
    EXPECT_EQ(io::recvFull(fds[1], tail, 4).status, io::XferResult::Eof);
    ::close(fds[1]);
}

TEST_F(Chaos, WriteFileAtomicEnospcNeverTouchesTheTarget)
{
    const TempDir dir("enospc");
    const std::string path = dir.file("artifact.bin");
    io::writeFileAtomic(path, "first-version");
    ASSERT_EQ(readFileBytes(path), "first-version");

    fault::installPlan("io.write.enospc=once:1");
    EXPECT_THROW(io::writeFileAtomic(path, "second-version"),
                 std::runtime_error);
    // The published artifact is untouched; the torn temp file stays
    // behind exactly as a real crash would leave it.
    EXPECT_EQ(readFileBytes(path), "first-version");
    const std::string tmp =
        path + ".tmp." +
        std::to_string(static_cast<unsigned long>(::getpid()));
    EXPECT_TRUE(std::filesystem::exists(tmp));
    EXPECT_EQ(fault::pointStats(fault::kWriteEnospc).fires, 1u);

    // The once-trigger is exhausted: the retry succeeds and the rename
    // consumes the temp file.
    io::writeFileAtomic(path, "second-version");
    EXPECT_EQ(readFileBytes(path), "second-version");
    EXPECT_FALSE(std::filesystem::exists(tmp));
}

// ---------------------------------------------------- checksummed files ---

TEST_F(Chaos, FlippedByteInTracePayloadFailsEveryReader)
{
    const TempDir dir("flip");
    const std::string path = dir.file("trace.rppmtrc");
    const ColumnarTrace trace = synthesizeTrace(chaosSpec("flip"));
    saveTraceToFile(trace, path);

    // Aim inside a known column payload via the layout index so the
    // damage is caught by the CRC trailer, not a structural check.
    uint64_t addrOffset = 0;
    {
        const FdFile file(path);
        const TraceFileLayout layout = indexTraceFile(file);
        ASSERT_EQ(layout.version, kTraceFormatVersion);
        ASSERT_TRUE(layout.hasBlockCrcs);
        ASSERT_GT(layout.threads[0].addr.count, 0u);
        addrOffset = layout.threads[0].addr.offset;
        EXPECT_EQ(verifyTraceFileCrcs(file, layout),
                  9 * layout.threads.size());
    }
    flipByteAt(path, addrOffset + 4);

    const auto isChecksum = [](const std::invalid_argument &e) {
        return std::string(e.what()).find("checksum mismatch") !=
               std::string::npos;
    };
    try {
        loadTraceViewFromFile(path);
        FAIL() << "whole-file loader accepted a corrupt trace";
    } catch (const std::invalid_argument &e) {
        EXPECT_TRUE(isChecksum(e)) << e.what();
    }
    try {
        const FdFile file(path);
        verifyTraceFileCrcs(file, indexTraceFile(file));
        FAIL() << "streaming verifier accepted a corrupt trace";
    } catch (const std::invalid_argument &e) {
        EXPECT_TRUE(isChecksum(e)) << e.what();
    }
}

TEST_F(Chaos, StreamingIndexVerifiesUnderInjectedShortReads)
{
    const TempDir dir("shortread");
    const std::string path = dir.file("trace.rppmtrc");
    const ColumnarTrace trace = synthesizeTrace(chaosSpec("shortread"));
    saveTraceToFile(trace, path);

    // Injected short preads perturb the syscall pattern, not the bytes:
    // indexing and full verification still succeed.
    fault::installPlan("io.pread.short=every:2");
    const FdFile file(path);
    const TraceFileLayout layout = indexTraceFile(file);
    EXPECT_EQ(verifyTraceFileCrcs(file, layout), 9 * layout.threads.size());
    EXPECT_GT(fault::pointStats(fault::kPreadShort).fires, 0u);
}

TEST_F(Chaos, LegacyVersion1TraceStillLoads)
{
    const TempDir dir("legacy");
    const std::string path = dir.file("legacy.rppmtrc");
    const ColumnarTrace trace = synthesizeTrace(chaosSpec("legacy"));

    // A pre-checksum version-1 image: same layout, no trailers.
    {
        const std::string image = legacyTraceBytes(trace);
        std::ofstream os(path, std::ios::binary);
        os.write(image.data(), static_cast<std::streamsize>(image.size()));
        ASSERT_TRUE(os.good());
    }

    // The whole-file loader accepts the legacy image and decodes the
    // synthesized trace: re-serializing with the current writer is
    // byte-identical to serializing the original.
    const ColumnarTrace loaded = loadTraceViewFromFile(path);
    EXPECT_TRUE(loaded == trace);
    std::ostringstream expect, seen;
    saveTrace(trace, expect);
    saveTrace(loaded, seen);
    EXPECT_EQ(seen.str(), expect.str());

    // The streaming index knows there is nothing to verify.
    const FdFile file(path);
    const TraceFileLayout layout = indexTraceFile(file);
    EXPECT_EQ(layout.version, 1u);
    EXPECT_FALSE(layout.hasBlockCrcs);
    EXPECT_EQ(verifyTraceFileCrcs(file, layout), 0u);
}

// --------------------------------------------------- cache self-healing ---

TEST_F(Chaos, ProfileCacheQuarantinesTornArtifactAndSelfHeals)
{
    const TempDir dir("heal");
    const WorkloadSpec spec = chaosSpec("chaos-heal");
    const ColumnarTrace trace = synthesizeTrace(spec);
    int computations = 0;
    const auto compute = [&] {
        ++computations;
        return profileWorkload(trace);
    };

    std::string goodBytes;
    std::string path;
    {
        ProfileCache cache;
        cache.setDirectory(dir.str());
        cache.getOrCompute(spec.name, {}, compute);
        path = cache.pathFor(spec.name, {});
        goodBytes = readFileBytes(path);
        ASSERT_FALSE(goodBytes.empty());
    }

    // A torn rename during the next rewrite truncates the artifact on
    // disk while the writer believes it succeeded — only the next
    // reader can catch it.
    fault::installPlan("fs.rename.torn=once:1");
    io::writeFileAtomic(path, goodBytes);
    fault::clearPlan();
    ASSERT_LT(std::filesystem::file_size(path), goodBytes.size());

    // The next cache load quarantines the damage and self-heals: the
    // torn bytes move to *.corrupt for post-mortem, the profile is
    // recomputed, and the rewritten artifact is byte-identical to the
    // never-corrupted one.
    ProfileCache fresh;
    fresh.setDirectory(dir.str());
    fresh.getOrCompute(spec.name, {}, compute);
    EXPECT_EQ(computations, 2);
    EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));
    EXPECT_EQ(readFileBytes(path), goodBytes);
    const ProfileCache::Stats stats = fresh.stats();
    EXPECT_EQ(stats.quarantined, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.diskHits, 0u);
}

TEST_F(Chaos, ProfileCacheDegradesToMemoryOnEnospc)
{
    const TempDir dir("cachespc");
    const WorkloadSpec spec = chaosSpec("chaos-enospc");
    const ColumnarTrace trace = synthesizeTrace(spec);
    const auto compute = [&] { return profileWorkload(trace); };

    // ENOSPC during the write-back: the study must still get its
    // profile (the disk tier is an optimization), just without a
    // durable artifact.
    fault::installPlan("io.write.enospc=once:1");
    ProfileCache cache;
    cache.setDirectory(dir.str());
    const auto starved = cache.getOrCompute(spec.name, {}, compute);
    EXPECT_EQ(fault::pointStats(fault::kWriteEnospc).fires, 1u);
    fault::clearPlan();
    ASSERT_NE(starved, nullptr);
    const std::string path = cache.pathFor(spec.name, {});
    EXPECT_FALSE(std::filesystem::exists(path));

    // Once space returns, a fresh cache recomputes and publishes an
    // artifact carrying the exact same profile bytes.
    ProfileCache healed;
    healed.setDirectory(dir.str());
    const auto recovered = healed.getOrCompute(spec.name, {}, compute);
    ASSERT_TRUE(std::filesystem::exists(path));
    std::ostringstream a, b;
    saveProfileBinary(*starved, a);
    saveProfileBinary(*recovered, b);
    EXPECT_EQ(a.str(), b.str());
    EXPECT_EQ(readFileBytes(path), b.str());
}

// ------------------------------------------------------- hardened daemon ---

TEST_F(Chaos, DaemonByteIdenticalToLocalUnderBenignFaultPlan)
{
    using namespace rppm::server;

    // A trace-file workload (exercising pread through the streaming
    // profiler) plus a suite kernel, referenced fault-free first.
    const TempDir dir("daemon");
    WorkloadSpec spec = chaosSpec("chaos-daemon");
    const ColumnarTrace trace = synthesizeTrace(spec);
    const std::string tracePath = dir.file("chaos.rppmtrc");
    saveTraceToFile(trace, tracePath);
    const std::vector<MulticoreConfig> configs = tableIvConfigs();

    Study study;
    study.add(WorkloadSource(loadTraceViewFromFile(tracePath)));
    study.addWorkload(*findBenchmark("backprop"));
    study.addConfigs(configs);
    study.addEvaluator("rppm");
    study.profilerOptions(lightProfiler());
    const StudyResult local = study.run();

    // Arm every benign point: perturbed syscalls, identical bytes.
    fault::installPlan("io.pread.short=every:5,net.recv.eintr=every:4,"
                       "net.send.partial=every:3");

    ServerOptions opts;
    opts.socketPath = socketPathFor("benign");
    opts.workers = 2;
    opts.streamChunkRecords = 512; // force the out-of-core pread path
    RppmServer server(opts);
    server.start();

    RppmClient client;
    client.connect(opts.socketPath);
    const auto check = [&](WorkloadRefKind kind, const std::string &ref,
                           const std::string &name) {
        Query query;
        query.kind = kind;
        query.workload = ref;
        query.profiler = lightProfiler();
        query.configs = configs;
        const auto results = client.evaluate(query);
        ASSERT_EQ(results.size(), configs.size());
        for (size_t i = 0; i < results.size(); ++i) {
            const Evaluation &want = local.at(name, configs[i].name, "rppm");
            EXPECT_EQ(results[i].cycles, want.cycles)
                << name << "/" << configs[i].name;
            EXPECT_EQ(results[i].seconds, want.seconds);
            EXPECT_EQ(results[i].threadSeconds, want.threadSeconds);
        }
    };
    check(WorkloadRefKind::TracePath, tracePath, spec.name);
    check(WorkloadRefKind::SuiteName, "backprop", "backprop");

    EXPECT_GT(fault::pointStats(fault::kPreadShort).fires, 0u);
    EXPECT_GT(fault::pointStats(fault::kRecvEintr).fires, 0u);
    EXPECT_GT(fault::pointStats(fault::kSendPartial).fires, 0u);

    client.close();
    server.stop();
}

TEST_F(Chaos, DeadlineExpiryFailsRequestWithoutPoisoningState)
{
    using namespace rppm::server;

    const std::vector<MulticoreConfig> configs = tableIvConfigs();
    Study study;
    study.addWorkload(*findBenchmark("backprop"));
    study.addConfigs(configs);
    study.addEvaluator("rppm");
    study.profilerOptions(lightProfiler());
    const StudyResult local = study.run();

    ServerOptions opts;
    opts.socketPath = socketPathFor("deadline");
    opts.workers = 1;
    RppmServer server(opts);
    server.start();

    // Occupy the single worker with a wide cold grid so the doomed
    // request's cells sit in the queue past their 1 ms deadline.
    RppmClient blocker;
    blocker.connect(opts.socketPath);
    std::atomic<bool> firstCell{false};
    std::thread blocking([&] {
        Query big;
        big.workload = "backprop";
        big.profiler = lightProfiler();
        big.configs = configs;
        const auto hetero = heterogeneousConfigs();
        big.configs.insert(big.configs.end(), hetero.begin(), hetero.end());
        try {
            blocker.evaluate(big, [&](const CellResult &) {
                firstCell.store(true, std::memory_order_release);
            });
        } catch (const std::exception &) {
            firstCell.store(true, std::memory_order_release);
        }
    });
    while (!firstCell.load(std::memory_order_acquire))
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    RppmClient client;
    client.connect(opts.socketPath);
    Query doomed;
    doomed.workload = "backprop";
    doomed.profiler = lightProfiler();
    doomed.deadlineMs = 1;
    doomed.configs = configs;
    try {
        client.evaluate(doomed);
        FAIL() << "1ms deadline behind a busy worker did not expire";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos)
            << e.what();
    }
    blocking.join();
    EXPECT_GE(server.stats().deadlineExpired, 1u);

    // The connection survives, and the shared memo/profile state the
    // failed request touched is not poisoned: a clean retry on the same
    // connection is byte-identical to the local reference.
    Query retry = doomed;
    retry.deadlineMs = 0;
    const auto results = client.evaluate(retry);
    ASSERT_EQ(results.size(), configs.size());
    for (size_t i = 0; i < results.size(); ++i) {
        const Evaluation &want = local.at("backprop", configs[i].name, "rppm");
        EXPECT_EQ(results[i].cycles, want.cycles) << configs[i].name;
        EXPECT_EQ(results[i].seconds, want.seconds);
        EXPECT_EQ(results[i].threadSeconds, want.threadSeconds);
    }
    client.close();
    blocker.close();
    server.stop();
}

TEST_F(Chaos, LoadSheddingIsDeterministicAtTheAdmissionBound)
{
    using namespace rppm::server;

    ServerOptions opts;
    opts.socketPath = socketPathFor("shed");
    opts.maxQueuedCells = 1;
    opts.busyRetryMs = 1;
    RppmServer server(opts);
    server.start();

    RppmClient client;
    client.connect(opts.socketPath);
    client.setBackoff({/*maxAttempts=*/3, /*capMs=*/2, /*seed=*/1});

    // Two cells can never fit a one-cell bound: every attempt is shed
    // and the client's backoff gives up after its budget.
    Query big;
    big.workload = "backprop";
    big.profiler = lightProfiler();
    big.configs = {baseConfig(), tableIvConfigs().front()};
    try {
        client.evaluate(big);
        FAIL() << "a 2-cell request was admitted past a 1-cell bound";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("busy"), std::string::npos)
            << e.what();
    }
    EXPECT_EQ(server.stats().shed, 3u); // one per attempt

    // Shedding is per-request, not per-connection: a request that fits
    // the bound is admitted and served on the same connection.
    Query fits;
    fits.workload = "backprop";
    fits.profiler = lightProfiler();
    fits.configs = {baseConfig()};
    const auto results = client.evaluate(fits);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_GT(results[0].cycles, 0.0);

    client.close();
    server.stop();
}

TEST_F(Chaos, HammerConvergesUnderShedsAndDeadlines)
{
    using namespace rppm::server;

    // The TSan acceptance bar: concurrent clients mixing doomed
    // (1 ms deadline) and clean queries against a bounded queue. Shed
    // requests back off and retry, expired requests fail cleanly, and
    // every delivered result is byte-identical to the local reference —
    // failed requests never corrupt shared memo or cache state.
    const std::vector<std::string> kernels = {"backprop", "bfs"};
    const std::vector<MulticoreConfig> configs = {baseConfig(),
                                                  tableIvConfigs().front()};
    Study study;
    for (const std::string &kernel : kernels)
        study.addWorkload(*findBenchmark(kernel));
    study.addConfigs(configs);
    study.addEvaluator("rppm");
    study.profilerOptions(lightProfiler());
    const StudyResult local = study.run();

    ServerOptions opts;
    opts.socketPath = socketPathFor("hammer");
    opts.workers = 2;
    opts.maxQueuedCells = 2 * configs.size();
    opts.busyRetryMs = 1;
    RppmServer server(opts);
    server.start();

    constexpr int kClients = 4;
    constexpr int kRounds = 4;
    std::atomic<int> mismatches{0};
    std::atomic<int> hardFailures{0};
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            try {
                RppmClient client;
                client.connect(opts.socketPath);
                client.setBackoff(
                    {/*maxAttempts=*/10000, /*capMs=*/2,
                     /*seed=*/static_cast<uint64_t>(c) + 1});
                for (int round = 0; round < kRounds; ++round) {
                    Query query;
                    query.workload = kernels[(c + round) % kernels.size()];
                    query.profiler = lightProfiler();
                    query.configs = configs;
                    // Odd rounds race a 1 ms deadline; either outcome
                    // is legal, but delivered cells must be exact.
                    query.deadlineMs = (round % 2 != 0) ? 1 : 0;
                    std::vector<CellResult> results;
                    try {
                        results = client.evaluate(query);
                    } catch (const std::runtime_error &) {
                        continue; // expired: clean failure, no results
                    }
                    for (size_t i = 0; i < results.size(); ++i) {
                        const Evaluation &want = local.at(
                            query.workload, configs[i].name, "rppm");
                        if (results[i].cycles != want.cycles ||
                            results[i].seconds != want.seconds ||
                            results[i].threadSeconds != want.threadSeconds)
                            ++mismatches;
                    }
                }
            } catch (const std::exception &) {
                ++hardFailures;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(hardFailures.load(), 0);

    // After the storm the state must still serve exact results.
    RppmClient client;
    client.connect(opts.socketPath);
    for (const std::string &kernel : kernels) {
        Query query;
        query.workload = kernel;
        query.profiler = lightProfiler();
        query.configs = configs;
        const auto results = client.evaluate(query);
        ASSERT_EQ(results.size(), configs.size());
        for (size_t i = 0; i < results.size(); ++i) {
            const Evaluation &want =
                local.at(kernel, configs[i].name, "rppm");
            EXPECT_EQ(results[i].cycles, want.cycles)
                << kernel << "/" << configs[i].name;
            EXPECT_EQ(results[i].threadSeconds, want.threadSeconds);
        }
    }
    client.close();
    server.stop();
}

TEST_F(Chaos, ServerShedsProfileTierBeforeMemoTier)
{
    using namespace rppm::server;

    // With a combined resident budget of one byte, every admission
    // triggers graceful degradation. Results stay exact — the budget
    // sheds speed (cached profiles, then memo engines), never bytes.
    ServerOptions opts;
    opts.socketPath = socketPathFor("budget");
    opts.maxResidentBytes = 1;
    RppmServer server(opts);
    server.start();

    RppmClient client;
    client.connect(opts.socketPath);
    Query query;
    query.workload = "backprop";
    query.profiler = lightProfiler();
    query.configs = {baseConfig(), tableIvConfigs().front()};
    const auto first = client.evaluate(query);
    const auto second = client.evaluate(query);
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].cycles, second[i].cycles);
        EXPECT_EQ(first[i].threadSeconds, second[i].threadSeconds);
    }
    client.close();
    server.stop();

    const RppmServer::Stats stats = server.stats();
    EXPECT_GT(stats.profile.evictions, 0u); // profile tier shed first
    EXPECT_EQ(stats.profile.residentBytes, 0u);
}

} // namespace
} // namespace rppm
