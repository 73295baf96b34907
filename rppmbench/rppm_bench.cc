/**
 * @file
 * rppm_bench — the end-to-end and per-layer benchmark of librppm.
 *
 * One process runs one workload (see README.md for the definitions):
 *
 *   rppm_bench --workload sync_dense|long_epoch --seed N
 *              --seconds S --trace 0|1 [--work-dir DIR] [--commit SHA]
 *
 * After set-up (setup_s), a run cycles through timed rounds for the
 * rest of --seconds. A round is one chunk of a fixed number of requests
 * to an in-process RppmServer from two closed-loop clients, then one
 * batch round of the workload's kernel (a cold Study, a warm-profile
 * predictGrid, and several predict and simulate calls on Base). Every
 * parallel knob is 2.
 *
 * With --trace 0 the last stdout line reports the end-to-end metrics;
 * with --trace 1 a span recorder is placed around each layer call, a
 * decomposed prediction is timed layer by layer, and the last line
 * reports the per-layer metrics while the spans go to a Chrome
 * trace-event file. Either way the line is
 *
 *   {"correct": B, "attempted": N, "failed": F, "metrics": {...}}
 *
 * where attempted counts the timed operations and checks, and failed
 * those whose output was wrong (see the checks in README.md).
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "profile/profiler.hh"
#include "rppm/memo.hh"
#include "rppm/predictor.hh"
#include "rppm/sync_model.hh"
#include "rppm/thread_model.hh"
#include "server/client.hh"
#include "server/server.hh"
#include "sim/simulator.hh"
#include "spans.hh"
#include "statstack/epoch_stacks.hh"
#include "study/study.hh"
#include "trace/columnar.hh"
#include "trace/trace_io.hh"
#include "workload/suite.hh"
#include "workload/workload.hh"

#ifndef RPPMBENCH_BUILD_TYPE
#define RPPMBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace rppm;
using rppmbench::Clock;
using rppmbench::ScopedSpan;
using rppmbench::SpanRecorder;

/** Every parallel knob: Study, profiler, synthesis, columnar
 *  conversion, server workers and server profiling jobs. */
constexpr unsigned kJobs = 2;
/** Closed-loop client connections of the serving traffic. */
constexpr unsigned kClients = 2;
/** Design points memoized by the server during set-up. */
constexpr size_t kHotSetSize = 8;
/** Minimum timed rounds, whatever --seconds says. */
constexpr size_t kMinRounds = 3;
/** Minimum timed requests, so p95 has at least ten samples above it. */
constexpr size_t kMinRequests = 220;
/** Untimed warm-up requests per client. */
constexpr size_t kWarmRequests = 3;
/** Requests whose every cell is recomputed in-process and compared. */
constexpr size_t kVerifiedRequests = 16;
/** Repeats of the traced layer calls (the layer metrics are medians). */
constexpr size_t kLayerPasses = 3;
/** Hot-set-only round trips timed for server.hot_rtt_ms. */
constexpr size_t kHotRttSamples = 40;
/** Per-request deadline; a request that misses it is a failure. */
constexpr uint32_t kDeadlineMs = 30000;
/** Scale of the fixed accuracy reference (see rppm_error_pct). */
constexpr double kReferenceScale = 0.25;

/**
 * The serving traffic, the same in every workload: an in-process
 * RppmServer holds srad at quarter scale (seeded by --seed) from an
 * mmap'd RPPMTRC file, and each request asks for kHotPerRequest points
 * of the memoized hot set plus kFreshPerRequest fresh points. A fresh
 * point re-runs phase 1 (about 17 ms on one worker) and phase 2, so a
 * request costs tens of milliseconds of prediction and the fixed 25%
 * hit mix keeps its latency unimodal.
 */
const char *const kServeKernel = "srad";
constexpr double kServeScale = 0.25;
constexpr unsigned kHotPerRequest = 2;
constexpr unsigned kFreshPerRequest = 6;
/**
 * The serving traffic is a fixed number of requests: kServeRate
 * (nominal requests per second) times the workload's serving share of
 * --seconds, and at least kMinRequests. A fixed count keeps the memo
 * state the server accumulates, and with it peak RSS, independent of
 * the machine's speed. The requests are split into one chunk per timed
 * round, so serving and batch samples both spread over the whole window.
 */
constexpr double kServeRate = 22.0;
/** Fewest requests in one round's chunk (a closed loop per client). */
constexpr size_t kMinChunk = 2 * kClients;

struct WorkloadDef
{
    const char *name;
    const char *kernel; ///< suite benchmark of the batch rounds
    double scale;       ///< its suite scale
    /** predict() and simulate() calls per round. Both are short next to
     *  a cold Study, and a shared host's speed moves from one call to
     *  the next, so they take several samples a round. */
    unsigned predicts;
    unsigned sims;
    /** Share of --seconds planned for the serving traffic. The batch
     *  rounds of a heavy kernel need more of the window to take enough
     *  cold-Study samples; a light kernel leaves more to serving. */
    double serveShare;
};

const WorkloadDef kWorkloads[] = {
    {"sync_dense", "Fluidanimate", 1.0, 3, 3, 0.35},
    {"long_epoch", "bfs", 1.0, 6, 2, 0.5},
};

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workDir = ".bench_build/run";
    std::string commit = "unknown";
};

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile @p p in [0, 100]. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

double
peakRssMb()
{
    struct rusage u;
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_maxrss) / 1024.0; // Linux: kB
}

std::string
g17(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** The suite's scaling rule (bench/pipeline.cc's scaleSpec). */
WorkloadSpec
scaledSpec(const std::string &kernel, double scale)
{
    const std::optional<SuiteEntry> entry = findBenchmark(kernel);
    if (!entry)
        throw std::runtime_error("unknown suite kernel " + kernel);
    WorkloadSpec spec = entry->spec;
    const auto mul = [scale](uint64_t v) {
        return std::max<uint64_t>(
            1, static_cast<uint64_t>(static_cast<double>(v) * scale));
    };
    spec.opsPerEpoch = mul(spec.opsPerEpoch);
    spec.initOps = mul(spec.initOps);
    spec.finalOps = mul(spec.finalOps);
    spec.itemOps = mul(spec.itemOps);
    return spec;
}

/** bench_perf's standard sweep: Table IV, a 27-state per-core DVFS
 *  ladder on Base and every big.LITTLE 2+2 placement. */
std::vector<MulticoreConfig>
sweepConfigs(uint32_t numThreads)
{
    std::vector<MulticoreConfig> grid = tableIvConfigs();
    const MulticoreConfig base = baseConfig();
    const double levels[] = {1.67, 2.5, 3.33};
    for (double a : levels) {
        for (double b : levels) {
            for (double c : levels) {
                char name[48];
                std::snprintf(name, sizeof name, "dvfs-%.2f-%.2f-%.2f", a, b,
                              c);
                grid.push_back(dvfsConfig(base, {2.5, a, b, c}, name));
            }
        }
    }
    for (const MulticoreConfig &m :
         mappingSweep(bigLittleConfig(2, 2), numThreads)) {
        grid.push_back(m);
    }
    return grid;
}

// ------------------------------------------------ serving design space ---

// Fresh points: L2 x LLC x ROB x width x DVFS, 6000 in all, so no fresh
// point repeats in a run.
const uint32_t kL2Kb[] = {128, 256, 512, 1024, 2048};
const uint32_t kLlcMb[] = {2, 4, 8, 16, 32};
const uint32_t kRob[] = {48, 64, 96, 128, 160, 192, 224, 256};
const uint32_t kWidth[] = {2, 3, 4, 5, 6, 8};
const double kGHz[] = {1.5, 2.0, 2.5, 3.0, 3.5};
constexpr size_t kSpaceSize = std::size(kL2Kb) * std::size(kLlcMb) *
    std::size(kRob) * std::size(kWidth) * std::size(kGHz);

MulticoreConfig
spacePoint(size_t i)
{
    size_t rest = i;
    const auto pick = [&rest](size_t n) {
        const size_t v = rest % n;
        rest /= n;
        return v;
    };
    const uint32_t l2 = kL2Kb[pick(std::size(kL2Kb))];
    const uint32_t llc = kLlcMb[pick(std::size(kLlcMb))];
    const uint32_t rob = kRob[pick(std::size(kRob))];
    const uint32_t width = kWidth[pick(std::size(kWidth))];
    const double ghz = kGHz[pick(std::size(kGHz))];
    MulticoreConfig cfg = baseConfig();
    cfg.eachCore([&](CoreConfig &c) {
        c.l2.sizeBytes = l2 * 1024;
        c.robSize = rob;
        c.issueQueueSize = rob / 2;
        c.dispatchWidth = width;
    });
    cfg.llc.sizeBytes = llc << 20;
    return dvfsConfig(cfg, std::vector<double>(cfg.numCores(), ghz),
                      "uarch-" + std::to_string(i));
}

/** Seeded Fisher-Yates permutation of the space's point indices. */
std::vector<size_t>
seededPermutation(size_t n, uint64_t seed)
{
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    Rng rng(seed ^ 0x5e7e5e7eULL);
    for (size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.nextBounded(i)]);
    return order;
}

// ------------------------------------------------------------- checks ---

/** Failed-against-attempted bookkeeping. Thread-safe. */
class Checks
{
  public:
    void
    expect(bool ok, const std::string &what)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++attempted_;
        if (!ok) {
            ++failed_;
            if (failed_ <= 20)
                std::fprintf(stderr, "rppm_bench: check failed: %s\n",
                             what.c_str());
        }
    }

    uint64_t
    attempted() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return attempted_;
    }

    uint64_t
    failed() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return failed_;
    }

  private:
    mutable std::mutex mutex_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

/** The deterministic counts a run pins: any change between repeats
 *  fails the run. */
struct Counts
{
    uint64_t epochs = 0;
    uint64_t microOps = 0;
    uint64_t totalOps = 0;
    MemoStats memo;
    double simCycles = 0.0;

    double
    microtraceFrac() const
    {
        return totalOps == 0 ? 0.0 :
            static_cast<double>(microOps) / static_cast<double>(totalOps);
    }
};

void
countProfile(const WorkloadProfile &profile, Counts &out)
{
    out.epochs = 0;
    out.microOps = 0;
    for (const ThreadProfile &t : profile.threads) {
        out.epochs += t.epochs.size();
        for (const EpochProfile &e : t.epochs) {
            for (const MicroTrace &m : e.microTraces)
                out.microOps += m.ops.size();
        }
    }
    out.totalOps = profile.totalOps();
}

bool
sameMemo(const MemoStats &a, const MemoStats &b)
{
    return a.predictions == b.predictions &&
        a.threadEvals == b.threadEvals && a.threadHits == b.threadHits &&
        a.syncRuns == b.syncRuns && a.syncHits == b.syncHits &&
        a.stacksBuilt == b.stacksBuilt && a.curvePoints == b.curvePoints &&
        a.curveHits == b.curveHits;
}

double
hitRatio(uint64_t hits, uint64_t misses)
{
    return hits + misses == 0 ?
        0.0 :
        static_cast<double>(hits) / static_cast<double>(hits + misses);
}

// --------------------------------------------------------- the run ---

struct Metric
{
    std::string name;
    std::string unit;
    double value;
};

/** One served request, kept for verification: the indices of its
 *  design points in the space (spacePoint rebuilds the configs) and
 *  the cells the server returned. */
struct Served
{
    std::vector<size_t> points;
    std::vector<server::CellResult> cells;
};

class Bench
{
  public:
    Bench(const WorkloadDef &def, const Options &opts)
        : def_(def), opts_(opts), rec_(def.name)
    {}

    ~Bench();

    Bench(const Bench &) = delete;
    Bench &operator=(const Bench &) = delete;

    /** Runs set-up and the timed rounds; returns the metrics of
     *  the requested mode. */
    std::vector<Metric> run();

    const Checks &checks() const { return checks_; }
    const SpanRecorder &spans() const { return rec_; }

  private:
    void setupServe();
    void setupBatch();
    void hotRtt();
    void layerPass();
    void layerCalls();
    void timedRounds(double budgetMs, size_t requests);
    void batchRound(bool traced);
    void serveChunk(size_t requests);
    void serveStats();
    void verifyServed();
    double referenceErrorPct();
    std::vector<size_t> nextRequest();
    std::vector<MulticoreConfig>
    configsOf(const std::vector<size_t> &points) const;
    server::Query query(std::vector<MulticoreConfig> configs) const;
    double medianAny(const std::string &metric);

    const WorkloadDef &def_;
    const Options &opts_;
    SpanRecorder rec_;
    Checks checks_;
    Clock::time_point start_ = Clock::now(); ///< process start (main)

    WorkloadSpec spec_;
    std::vector<MulticoreConfig> sweep_;
    MulticoreConfig base_ = baseConfig();
    ProfilerOptions profOpts_;

    // Set-up products: the warm Study keeps the trace alive.
    std::unique_ptr<Study> warmStudy_;
    std::shared_ptr<const WorkloadProfile> profile_;
    const ColumnarTrace *cols_ = nullptr;
    double predictCycles_ = 0.0;
    double warmRoundMs_ = 0.0; ///< a batch round's cost, from set-up
    Counts counts_;
    bool countsPinned_ = false;
    double setupS_ = 0.0;
    double errorPct_ = 0.0;

    // Serving (the destructor disconnects the clients, then stops the
    // server and removes the trace file).
    std::string tracePath_;
    uint64_t servedOps_ = 0;
    std::unique_ptr<server::RppmServer> server_;
    std::vector<std::unique_ptr<server::RppmClient>> clients_;
    std::vector<size_t> order_;
    std::vector<MulticoreConfig> hotSet_;
    std::vector<server::CellResult> hotCells_;
    std::atomic<size_t> freshCursor_{0};
    std::atomic<size_t> requestSeq_{0};
    std::atomic<bool> exhausted_{false};
    std::mutex servedMutex_;
    std::vector<Served> served_;
    std::vector<double> latenciesMs_;
    double serveElapsedMs_ = 0.0; ///< summed over the chunks

    // Timed samples, per end-to-end metric, split by recorder state in
    // traced runs (index 1 = spans on).
    std::map<std::string, std::vector<double>> samples_[2];

    // Per-layer results of the traced pass.
    std::map<std::string, double> layer_;
};

Bench::~Bench()
{
    clients_.clear();
    if (server_)
        server_->stop();
    if (!tracePath_.empty()) {
        std::error_code ec;
        std::filesystem::remove(tracePath_, ec);
    }
}

/**
 * The next request's design points: hot points round-robin over the
 * hot set (order_[0..kHotSetSize)), fresh points from a shared cursor
 * into the seeded permutation, so no fresh point repeats in a run.
 * Empty when the space runs out.
 */
std::vector<size_t>
Bench::nextRequest()
{
    const size_t seq = requestSeq_.fetch_add(1);
    const size_t first = freshCursor_.fetch_add(kFreshPerRequest);
    if (first + kFreshPerRequest > order_.size()) {
        exhausted_ = true;
        return {};
    }
    std::vector<size_t> points;
    for (unsigned k = 0; k < kHotPerRequest; ++k)
        points.push_back(order_[(seq * kHotPerRequest + k) % kHotSetSize]);
    for (unsigned k = 0; k < kFreshPerRequest; ++k)
        points.push_back(order_[first + k]);
    return points;
}

std::vector<MulticoreConfig>
Bench::configsOf(const std::vector<size_t> &points) const
{
    std::vector<MulticoreConfig> configs;
    configs.reserve(points.size());
    for (size_t p : points)
        configs.push_back(spacePoint(p));
    return configs;
}

double
Bench::medianAny(const std::string &metric)
{
    std::vector<double> all = samples_[0][metric];
    const std::vector<double> &traced = samples_[1][metric];
    all.insert(all.end(), traced.begin(), traced.end());
    return median(all);
}

server::Query
Bench::query(std::vector<MulticoreConfig> configs) const
{
    server::Query q;
    q.kind = server::WorkloadRefKind::TracePath;
    q.workload = tracePath_;
    q.profiler = profOpts_;
    q.deadlineMs = kDeadlineMs;
    q.configs = std::move(configs);
    return q;
}

double
Bench::referenceErrorPct()
{
    // The accuracy guard must read the same on every run, so it uses the
    // kernel at the suite's own seed (not --seed) and quarter scale:
    // mean |rppm - sim| / sim over Table IV.
    ScopedSpan span(rec_, "setup.reference_error");
    const WorkloadSpec ref =
        scaledSpec(def_.kernel, std::min(def_.scale, kReferenceScale));
    const ColumnarTrace cols =
        ColumnarTrace::fromWorkload(generateWorkload(ref, kJobs), kJobs);
    const WorkloadProfile profile = profileWorkload(cols, profOpts_);
    const std::vector<MulticoreConfig> table = tableIvConfigs();
    const std::vector<RppmPrediction> preds = predictGrid(profile, table);
    SimOptions simOpts;
    simOpts.jobs = kJobs;
    double sum = 0.0;
    for (size_t i = 0; i < table.size(); ++i) {
        const double sim = simulate(cols, table[i], simOpts).totalCycles;
        checks_.expect(sim > 0.0, "reference simulation produced cycles");
        sum += std::fabs(preds[i].totalCycles - sim) / sim;
    }
    return 100.0 * sum / static_cast<double>(table.size());
}

void
Bench::setupServe()
{
    ScopedSpan span(rec_, "setup.serve");
    spec_ = scaledSpec(def_.kernel, def_.scale);
    spec_.seed = opts_.seed;
    profOpts_.jobs = kJobs;

    // The served trace goes to disk; the server mmaps it and profiles it
    // on the first request.
    WorkloadSpec served = scaledSpec(kServeKernel, kServeScale);
    served.seed = opts_.seed;
    std::filesystem::create_directories(opts_.workDir);
    const std::string stem = opts_.workDir + "/" + def_.name + "-" +
        std::to_string(static_cast<long>(::getpid()));
    tracePath_ = stem + ".rppmtrc";
    {
        const ColumnarTrace cols = ColumnarTrace::fromWorkload(
            generateWorkload(served, kJobs), kJobs);
        servedOps_ = cols.totalOps();
        ScopedSpan s(rec_, "trace.save");
        saveTraceToFile(cols, tracePath_);
    }
    server::ServerOptions sopts;
    sopts.socketPath = stem + ".sock";
    sopts.workers = kJobs;
    sopts.jobs = kJobs;
    server_ = std::make_unique<server::RppmServer>(sopts);
    server_->start();

    order_ = seededPermutation(kSpaceSize, opts_.seed);
    freshCursor_ = kHotSetSize;
    for (unsigned c = 0; c < kClients; ++c) {
        auto client = std::make_unique<server::RppmClient>();
        server::BackoffOptions noRetry;
        noRetry.maxAttempts = 1; // a Busy reply is a failure, not a retry
        client->setBackoff(noRetry);
        client->connect(sopts.socketPath, "rppm_bench");
        clients_.push_back(std::move(client));
    }

    // Memoize the hot set, then a few mixed requests per client warm
    // the request path.
    {
        ScopedSpan s(rec_, "setup.hot_set");
        hotSet_ = configsOf(std::vector<size_t>(
            order_.begin(), order_.begin() + kHotSetSize));
        hotCells_ = clients_[0]->evaluate(query(hotSet_));
        checks_.expect(hotCells_.size() == kHotSetSize,
                       "hot set fully served");
    }
    {
        ScopedSpan s(rec_, "setup.warm_requests");
        for (size_t i = 0; i < kWarmRequests; ++i) {
            for (auto &client : clients_) {
                const std::vector<size_t> points = nextRequest();
                checks_.expect(client->evaluate(query(configsOf(points)))
                                       .size() == points.size(),
                               "warm-up request served in full");
            }
        }
    }
}

void
Bench::setupBatch()
{
    ScopedSpan span(rec_, "setup.batch");
    sweep_ = sweepConfigs(spec_.numThreads());
    // First, so its memory is reused by what follows rather than
    // stacked on top of it.
    errorPct_ = referenceErrorPct();

    // Warm-up cold Study: the first one in a process pays page faults
    // and allocator growth the timed ones do not. It also provides the
    // trace's columnar view and the profile for the rest of the run.
    // The warm-up calls also give the first estimate of a round's cost
    // (a predictGrid is counted as another Study).
    auto t = Clock::now();
    {
        ScopedSpan s(rec_, "setup.warm_study");
        warmStudy_ = std::make_unique<Study>();
        warmStudy_->addWorkload(spec_)
            .addConfigs(sweep_)
            .addEvaluator("rppm")
            .profilerOptions(profOpts_)
            .jobs(kJobs);
        profile_ = warmStudy_->profile(spec_.name);
        const StudyResult grid = warmStudy_->run();
        cols_ = &warmStudy_->sources().front().columnar(kJobs);
        predictCycles_ = grid.at(spec_.name, "Base", "rppm").cycles;
    }
    warmRoundMs_ = 2.0 * msSince(t);
    t = Clock::now();
    {
        ScopedSpan s(rec_, "setup.warm_predict");
        const RppmPrediction p = predict(*profile_, base_);
        checks_.expect(g17(p.totalCycles) == g17(predictCycles_),
                       "the Study's Base cell equals predict()");
    }
    warmRoundMs_ += def_.predicts * msSince(t);
    t = Clock::now();
    {
        ScopedSpan s(rec_, "setup.warm_sim");
        counts_.simCycles = simulate(*cols_, base_).totalCycles;
        checks_.expect(counts_.simCycles > 0.0, "simulation produced cycles");
    }
    warmRoundMs_ += def_.sims * msSince(t);
    countProfile(*profile_, counts_);
}

void
Bench::hotRtt()
{
    // Hot-set-only round trips: every cell is a memo hit, so this is
    // the protocol and queue cost of a request.
    std::vector<double> rtt;
    for (size_t i = 0; i < kHotRttSamples; ++i) {
        ScopedSpan s(rec_, "server.hot_rtt");
        const auto t0 = Clock::now();
        const auto cells = clients_[0]->evaluate(query(hotSet_));
        rtt.push_back(msSince(t0));
        checks_.expect(cells.size() == hotSet_.size(), "hot request served");
    }
    layer_["server.hot_rtt_ms"] = median(rtt);
}

void
Bench::layerPass()
{
    // Each public call of the layer table under its own span; the
    // layer metrics are medians over the passes.
    for (size_t i = 0; i < kLayerPasses; ++i)
        layerCalls();
    layer_["workload.generate_ms"] = rec_.medianMs("workload.generate");
    layer_["trace.columnar_ms"] = rec_.medianMs("trace.columnar");
    layer_["trace.save_ms"] = rec_.medianMs("trace.save");
    layer_["trace.view_ms"] = rec_.medianMs("trace.view");
    const double profileMs = rec_.medianMs("profile.profile");
    layer_["profile.profile_ms"] = profileMs;
    layer_["profile.ns_per_op"] =
        profileMs * 1e6 / static_cast<double>(counts_.totalOps);
    layer_["statstack.build_ms"] = rec_.medianMs("statstack.build");
    layer_["statstack.micro_sd_ms"] = rec_.medianMs("statstack.micro_sd");
    layer_["rppm.thread_ms"] = rec_.medianMs("rppm.thread");
    layer_["rppm.sync_ms"] = rec_.medianMs("rppm.sync");
}

void
Bench::layerCalls()
{
    ScopedSpan pass(rec_, "layers");
    WorkloadTrace trace;
    ColumnarTrace cols;
    WorkloadProfile profile;
    {
        ScopedSpan s(rec_, "workload.generate");
        trace = generateWorkload(spec_, kJobs);
    }
    {
        ScopedSpan s(rec_, "trace.columnar");
        cols = ColumnarTrace::fromWorkload(trace, kJobs);
    }
    {
        ScopedSpan s(rec_, "profile.profile");
        profile = profileWorkload(cols, profOpts_);
    }
    Counts c;
    countProfile(profile, c);
    checks_.expect(c.epochs == counts_.epochs &&
                       c.microOps == counts_.microOps,
                   "layer-pass profile matches the Study's profile");
    {
        ScopedSpan s(rec_, "trace.view");
        const ColumnarTrace view = loadTraceViewFromFile(tracePath_);
        checks_.expect(view.totalOps() == servedOps_,
                       "mmap'd trace view has every op");
    }

    // The decomposed predict(Base): StatStack bundles, phase 1 per
    // thread on the prebuilt bundles, phase 2.
    std::vector<std::vector<std::shared_ptr<const EpochStacks>>> stacks(
        profile.numThreads);
    {
        ScopedSpan s(rec_, "statstack.build");
        for (uint32_t t = 0; t < profile.numThreads; ++t) {
            for (const EpochProfile &e : profile.threads[t].epochs)
                stacks[t].push_back(std::make_shared<EpochStacks>(e, true));
        }
    }
    {
        ScopedSpan s(rec_, "statstack.micro_sd");
        for (const auto &thread : stacks) {
            for (const auto &bundle : thread)
                bundle->microSd();
        }
    }
    std::vector<ThreadPrediction> threads;
    {
        ScopedSpan s(rec_, "rppm.thread");
        for (uint32_t t = 0; t < profile.numThreads; ++t) {
            const auto &mine = stacks[t];
            threads.push_back(predictThread(
                profile.threads[t], base_, base_.threadCore(t), Eq1Options{},
                [&mine](size_t epoch) { return mine[epoch]; }));
        }
    }
    SyncModelResult sync;
    {
        ScopedSpan s(rec_, "rppm.sync");
        sync = runSyncModel(profile, threads, base_);
    }
    checks_.expect(g17(sync.totalCycles) == g17(predictCycles_),
                   "decomposed prediction equals predict()");
}

void
Bench::batchRound(bool traced)
{
    ScopedSpan r(rec_, "batch.round");
    const SimOptions simOpts; // jobs 1, like predict
    std::map<std::string, std::vector<double>> &samples =
        samples_[traced ? 1 : 0];

    const auto studyCold = [&] {
        ScopedSpan s(rec_, "e2e.study_cold");
        const auto t = Clock::now();
        Study study;
        study.addWorkload(spec_)
            .addConfigs(sweep_)
            .addEvaluator("rppm")
            .profilerOptions(profOpts_)
            .jobs(kJobs);
        std::shared_ptr<const WorkloadProfile> profile;
        {
            ScopedSpan p(rec_, "study.profile");
            profile = study.profile(spec_.name);
        }
        std::optional<StudyResult> grid;
        {
            ScopedSpan g(rec_, "study.grid");
            grid = study.run();
        }
        samples["study_cold_ms"].push_back(msSince(t));
        Counts c;
        countProfile(*profile, c);
        checks_.expect(c.epochs == counts_.epochs &&
                           c.microOps == counts_.microOps &&
                           c.totalOps == counts_.totalOps,
                       "profile counts repeat");
        checks_.expect(grid->cells().size() == sweep_.size() &&
                           g17(grid->at(spec_.name, "Base", "rppm").cycles) ==
                               g17(predictCycles_),
                       "cold Study's Base cell equals predict()");
    };
    const auto predictGridSample = [&] {
        ScopedSpan s(rec_, "e2e.grid");
        MemoStats stats;
        const auto t = Clock::now();
        const std::vector<RppmPrediction> preds =
            predictGrid(*profile_, sweep_, {}, &stats);
        samples["grid_ms"].push_back(msSince(t));
        if (!countsPinned_) {
            counts_.memo = stats;
            countsPinned_ = true;
        }
        checks_.expect(preds.size() == sweep_.size() &&
                           sameMemo(stats, counts_.memo),
                       "predictGrid memo counts repeat");
    };
    const auto predictSample = [&] {
        ScopedSpan s(rec_, "e2e.predict");
        const auto t = Clock::now();
        const double cycles = predict(*profile_, base_).totalCycles;
        samples["predict_ms"].push_back(msSince(t));
        checks_.expect(g17(cycles) == g17(predictCycles_),
                       "predict() repeats");
    };
    const auto simSample = [&] {
        ScopedSpan s(rec_, "e2e.sim");
        const auto t = Clock::now();
        const SimResult sim = simulate(*cols_, base_, simOpts);
        samples["sim_ms"].push_back(msSince(t));
        checks_.expect(g17(sim.totalCycles) == g17(counts_.simCycles),
                       "simulated cycles repeat");
    };

    // The short calls are spread between the two long ones.
    const unsigned n = std::max(def_.predicts, def_.sims);
    studyCold();
    for (unsigned i = 0; i < n; ++i) {
        if (i == n / 2)
            predictGridSample();
        if (i < def_.predicts)
            predictSample();
        if (i < def_.sims)
            simSample();
    }
}

void
Bench::timedRounds(double budgetMs, size_t requests)
{
    ScopedSpan phase(rec_, "timed");
    // A round is one chunk of the serving traffic, then one batch round.
    // The chunk is what is left of the requests over the rounds that
    // still fit, so the fixed request count spreads over the window.
    const auto t0 = Clock::now();
    double batchMs = 0.0;
    size_t sent = 0;
    for (size_t round = 0;; ++round) {
        const double elapsed = msSince(t0);
        const double serveLeftMs = sent == 0 ?
            1000.0 * static_cast<double>(requests) / kServeRate :
            serveElapsedMs_ * static_cast<double>(requests - sent) /
                static_cast<double>(sent);
        const double roundMs = round == 0 ?
            warmRoundMs_ : batchMs / static_cast<double>(round);
        // Past the minimum, start a round only if at least half of one
        // more still fits in the window.
        const double fit = (budgetMs - elapsed - serveLeftMs) / roundMs;
        if (round >= kMinRounds && fit < 0.5)
            break;
        const size_t roundsLeft = std::max<size_t>(
            {1, kMinRounds - std::min(round, kMinRounds),
             static_cast<size_t>(std::lround(fit))});
        const size_t chunk = std::min(
            requests - sent,
            std::max(kMinChunk, (requests - sent + roundsLeft - 1) /
                                    roundsLeft));
        if (chunk > 0)
            serveChunk(chunk);
        sent += chunk;

        // Traced runs alternate span recording per round so the same
        // process measures its own tracing overhead.
        const bool traced = opts_.trace && round % 2 == 0;
        rec_.setEnabled(traced);
        const auto t = Clock::now();
        batchRound(traced);
        batchMs += msSince(t);
        rec_.setEnabled(opts_.trace);
    }
    if (sent < requests)
        serveChunk(requests - sent);
}

void
Bench::serveChunk(size_t requests)
{
    ScopedSpan phase(rec_, "serve");
    const int64_t phaseId = phase.id();
    std::atomic<size_t> issued{0};
    std::vector<std::vector<double>> lat(kClients);
    std::vector<std::thread> threads;
    const auto t0 = Clock::now();
    for (unsigned c = 0; c < kClients; ++c) {
        // Closed loop: each connection sends its next request only when
        // the previous one has fully arrived.
        threads.emplace_back([&, c] {
            server::RppmClient &client = *clients_[c];
            while (issued.fetch_add(1) < requests) {
                std::vector<size_t> points = nextRequest();
                if (points.empty())
                    break;
                const std::vector<MulticoreConfig> configs =
                    configsOf(points);
                std::vector<server::CellResult> cells;
                bool ok = false;
                ScopedSpan s(rec_, "serve.request", phaseId);
                const auto t = Clock::now();
                try {
                    cells = client.evaluate(query(configs));
                    ok = cells.size() == configs.size();
                } catch (const std::exception &e) {
                    std::fprintf(stderr, "rppm_bench: request failed: %s\n",
                                 e.what());
                }
                lat[c].push_back(msSince(t));
                checks_.expect(ok, "request served in full");
                std::lock_guard<std::mutex> lock(servedMutex_);
                served_.push_back({std::move(points), std::move(cells)});
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    serveElapsedMs_ += msSince(t0);
    for (const auto &v : lat)
        latenciesMs_.insert(latenciesMs_.end(), v.begin(), v.end());
}

void
Bench::serveStats()
{
    checks_.expect(!exhausted_, "fresh design points did not run out");
    const server::RppmServer::Stats st = server_->stats();
    checks_.expect(st.shed == 0, "no request was shed (Busy)");
    checks_.expect(st.deadlineExpired == 0, "no deadline expired");
    layer_["server.cells_per_batch"] = st.batches == 0 ? 0.0 :
        static_cast<double>(st.cells) / static_cast<double>(st.batches);
    layer_["server.profile_hit_ratio"] =
        hitRatio(st.profile.memoryHits + st.profile.diskHits,
                 st.profile.misses);
    layer_["server.shed"] = static_cast<double>(st.shed);
    layer_["server.deadline_expired"] =
        static_cast<double>(st.deadlineExpired);
}

void
Bench::verifyServed()
{
    // Every cell of the hot set and of an evenly spaced sample of the
    // timed requests, recomputed by one in-process predictGrid over a
    // local profile of the served trace and compared at %.17g.
    ScopedSpan span(rec_, "verify");
    std::vector<const Served *> picked;
    const size_t n = served_.size();
    const size_t want = std::min(n, kVerifiedRequests);
    for (size_t i = 0; i < want; ++i)
        picked.push_back(&served_[i * n / want]);
    std::vector<MulticoreConfig> configs = hotSet_;
    for (const Served *s : picked) {
        const std::vector<MulticoreConfig> more = configsOf(s->points);
        configs.insert(configs.end(), more.begin(), more.end());
    }
    const WorkloadProfile profile =
        profileWorkload(loadTraceViewFromFile(tracePath_), profOpts_);
    const std::vector<RppmPrediction> local = predictGrid(profile, configs);

    const auto same = [](const server::CellResult &cell,
                         const RppmPrediction &p) {
        if (g17(cell.cycles) != g17(p.totalCycles) ||
            g17(cell.seconds) != g17(p.totalSeconds) ||
            cell.threadSeconds.size() != p.threadSeconds.size())
            return false;
        for (size_t t = 0; t < cell.threadSeconds.size(); ++t) {
            if (g17(cell.threadSeconds[t]) != g17(p.threadSeconds[t]))
                return false;
        }
        return true;
    };
    size_t at = 0;
    for (size_t i = 0; i < hotSet_.size(); ++i, ++at) {
        checks_.expect(i < hotCells_.size() && same(hotCells_[i], local[at]),
                       "hot cell equals local predictGrid");
    }
    for (const Served *s : picked) {
        for (size_t i = 0; i < s->points.size(); ++i, ++at) {
            checks_.expect(i < s->cells.size() && same(s->cells[i], local[at]),
                           "served cell equals local predictGrid");
        }
    }
}

std::vector<Metric>
Bench::run()
{
    rec_.setEnabled(opts_.trace);
    const double windowMs = opts_.seconds * 1000.0;

    // setup_s is everything before the first timed sample: the server
    // with its hot set, the accuracy reference and the warm-up calls.
    setupServe();
    setupBatch();
    setupS_ = msSince(start_) / 1000.0;

    // The timed rounds get what remains of the window (the traced
    // layer pass spends part of it).
    const auto t = Clock::now();
    if (opts_.trace) {
        hotRtt();
        layerPass();
    }
    const size_t requests = std::max(
        kMinRequests, static_cast<size_t>(std::lround(
                          kServeRate * def_.serveShare * windowMs / 1000.0)));
    timedRounds(std::max(0.0, windowMs - msSince(t)), requests);
    checks_.expect(latenciesMs_.size() == requests,
                   "every timed request was sent");
    serveStats();
    clients_.clear();
    server_.reset();
    verifyServed();

    std::printf("rppm_bench: %s seed %llu: rppm_error_pct %.4f "
                "rppm_vs_sim %.3f (sim_ms / predict_ms, derived, "
                "gates nothing)\n",
                def_.name, static_cast<unsigned long long>(opts_.seed),
                errorPct_, medianAny("sim_ms") / medianAny("predict_ms"));

    std::vector<Metric> out;
    if (!opts_.trace) {
        const auto &s = samples_[0];
        out.push_back({"study_cold_ms", "ms", median(s.at("study_cold_ms"))});
        out.push_back({"grid_ms", "ms", median(s.at("grid_ms"))});
        out.push_back({"predict_ms", "ms", median(s.at("predict_ms"))});
        out.push_back({"sim_ms", "ms", median(s.at("sim_ms"))});
        out.push_back({"rppm_error_pct", "%", errorPct_});
        out.push_back({"serve_p50_ms", "ms", percentile(latenciesMs_, 50)});
        out.push_back({"serve_p95_ms", "ms", percentile(latenciesMs_, 95)});
        out.push_back({"serve_rps", "1/s",
                       static_cast<double>(latenciesMs_.size()) * 1000.0 /
                           serveElapsedMs_});
        out.push_back({"setup_s", "s", setupS_});
        out.push_back({"peak_rss_mb", "MB", peakRssMb()});
        std::printf("rppm_bench: samples study_cold %zu grid %zu predict %zu "
                    "sim %zu requests %zu\n",
                    s.at("study_cold_ms").size(), s.at("grid_ms").size(),
                    s.at("predict_ms").size(), s.at("sim_ms").size(),
                    latenciesMs_.size());
        return out;
    }

    // Tracing overhead: the summed batch medians of the rounds recorded
    // with spans on, minus those recorded with spans off.
    double on = 0.0, off = 0.0;
    for (const char *m : {"study_cold_ms", "grid_ms", "predict_ms", "sim_ms"}) {
        on += median(samples_[1][m]);
        off += median(samples_[0][m]);
    }
    const double ops = static_cast<double>(cols_->totalOps());
    out.push_back({"workload.generate_ms", "ms",
                   layer_["workload.generate_ms"]});
    out.push_back({"trace.columnar_ms", "ms", layer_["trace.columnar_ms"]});
    out.push_back({"trace.save_ms", "ms", layer_["trace.save_ms"]});
    out.push_back({"trace.view_ms", "ms", layer_["trace.view_ms"]});
    out.push_back({"profile.profile_ms", "ms", layer_["profile.profile_ms"]});
    out.push_back({"profile.ns_per_op", "ns/op", layer_["profile.ns_per_op"]});
    out.push_back({"profile.epochs", "count",
                   static_cast<double>(counts_.epochs)});
    out.push_back({"profile.microtrace_frac", "ratio",
                   counts_.microtraceFrac()});
    out.push_back({"statstack.build_ms", "ms", layer_["statstack.build_ms"]});
    out.push_back({"statstack.micro_sd_ms", "ms",
                   layer_["statstack.micro_sd_ms"]});
    out.push_back({"statstack.predict_share", "ratio",
                   layer_["statstack.build_ms"] /
                       (layer_["statstack.build_ms"] +
                        layer_["statstack.micro_sd_ms"] +
                        layer_["rppm.thread_ms"] + layer_["rppm.sync_ms"])});
    out.push_back({"statstack.bundles", "count",
                   static_cast<double>(counts_.memo.stacksBuilt)});
    out.push_back({"rppm.thread_ms", "ms", layer_["rppm.thread_ms"]});
    out.push_back({"rppm.sync_ms", "ms", layer_["rppm.sync_ms"]});
    out.push_back({"rppm.memo.thread_hit_ratio", "ratio",
                   hitRatio(counts_.memo.threadHits,
                            counts_.memo.threadEvals)});
    out.push_back({"rppm.memo.sync_hit_ratio", "ratio",
                   hitRatio(counts_.memo.syncHits, counts_.memo.syncRuns)});
    out.push_back({"rppm.memo.curve_hit_ratio", "ratio",
                   hitRatio(counts_.memo.curveHits,
                            counts_.memo.curvePoints)});
    out.push_back({"sim.ns_per_op", "ns/op",
                   rec_.medianMs("e2e.sim") * 1e6 / ops});
    out.push_back({"sim.cycles", "cycles", counts_.simCycles});
    out.push_back({"study.profile_ms", "ms", rec_.medianMs("study.profile")});
    out.push_back({"study.grid_ms", "ms", rec_.medianMs("study.grid")});
    out.push_back({"server.hot_rtt_ms", "ms", layer_["server.hot_rtt_ms"]});
    out.push_back({"server.cells_per_batch", "ratio",
                   layer_["server.cells_per_batch"]});
    out.push_back({"server.profile_hit_ratio", "ratio",
                   layer_["server.profile_hit_ratio"]});
    out.push_back({"server.shed", "count", layer_["server.shed"]});
    out.push_back({"server.deadline_expired", "count",
                   layer_["server.deadline_expired"]});
    out.push_back({"tracing.overhead_ms", "ms", on - off});
    return out;
}

// --------------------------------------------------------------- main ---

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "rppm_bench: %s\nusage: rppm_bench --workload "
                 "sync_dense|long_epoch --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR] [--commit SHA]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string v = argv[++i];
        try {
            if (arg == "--workload")
                o.workload = v;
            else if (arg == "--seed")
                o.seed = std::stoull(v);
            else if (arg == "--seconds")
                o.seconds = std::stod(v);
            else if (arg == "--trace")
                o.trace = std::stoi(v) != 0;
            else if (arg == "--work-dir")
                o.workDir = v;
            else if (arg == "--commit")
                o.commit = v;
            else
                usage(("unknown option " + arg).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + arg).c_str());
        }
    }
    if (o.seconds <= 0.0)
        usage("--seconds must be positive");
    return o;
}

#if defined(__clang__)
const char *const kCompiler = "clang ";
#elif defined(__GNUC__)
const char *const kCompiler = "gcc ";
#else
const char *const kCompiler = "";
#endif

std::string
provenanceJson(const WorkloadDef &def, const Options &o)
{
    std::ostringstream os;
    os << "{\"workload\": \"" << def.name << "\", \"kernel\": \""
       << def.kernel << "\", \"scale\": " << def.scale
       << ", \"seed\": " << o.seed << ", \"seconds\": " << o.seconds
       << ", \"trace\": " << (o.trace ? 1 : 0) << ", \"jobs\": " << kJobs
       << ", \"clients\": " << kClients
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"compiler\": \"" << kCompiler << __VERSION__
       << "\", \"build_type\": \""
       << RPPMBENCH_BUILD_TYPE << "\", \"commit\": \"" << o.commit << "\"}";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    const WorkloadDef *def = nullptr;
    for (const WorkloadDef &w : kWorkloads) {
        if (opts.workload == w.name)
            def = &w;
    }
    if (!def)
        usage(("unknown workload '" + opts.workload + "'").c_str());

    const std::string provenance = provenanceJson(*def, opts);
    std::printf("{\"provenance\": %s}\n", provenance.c_str());

    Bench bench(*def, opts);
    std::vector<Metric> metrics;
    try {
        metrics = bench.run();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "rppm_bench: %s\n", e.what());
        return 1;
    }

    if (opts.trace) {
        const std::string path = opts.workDir + "/" + def->name + "-seed" +
            std::to_string(opts.seed) + ".trace.json";
        std::ofstream os(path);
        os << bench.spans().chromeJson(provenance);
        if (!os) {
            std::fprintf(stderr, "rppm_bench: cannot write %s\n",
                         path.c_str());
            return 1;
        }
        std::printf("rppm_bench: wrote %s\n", path.c_str());
    }

    const uint64_t failed = bench.checks().failed();
    std::ostringstream os;
    os << "{\"correct\": " << (failed == 0 ? "true" : "false")
       << ", \"attempted\": " << bench.checks().attempted()
       << ", \"failed\": " << failed << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        os << (i ? ", " : "") << "\"" << metrics[i].name
           << "\": {\"value\": " << g17(metrics[i].value)
           << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    os << "}}";
    std::printf("%s\n", os.str().c_str());
    return 0;
}
