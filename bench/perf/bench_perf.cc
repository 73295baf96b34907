/**
 * @file
 * Performance micro-harness for the hot path: trace synthesis,
 * profiling (at one job, at --jobs and chunked), the
 * simulator oracle (sequential columnar vs. parallel engine), single
 * prediction and a full Study sweep-grid evaluation through the
 * memoized component engine, per workload kernel.
 *
 * Emits machine-readable JSON (schema "rppm-bench-perf-1") and can check
 * the measurements against a baseline written by another run, failing
 * the process on regression. CI's perf-smoke job builds the parent
 * commit and the change on the same runner, writes the parent's
 * baseline, then runs the change against it (an A/B gate).
 *
 * Usage:
 *   bench_perf [--kernels a,b,c | --kernels all] [--filter REGEX]
 *              [--scale F] [--repeat N] [--jobs N] [--out FILE]
 *              [--baseline FILE [--max-regression F]]
 *              [--min-profile-par-speedup F] [--min-sim-par-speedup F]
 *              [--min-serve-speedup F] [--max-stream-overhead F]
 *              [--write-baseline FILE]
 *
 * --jobs drives every parallel knob at once: the Study worker pool of
 * the grid phases, the profiler jobs of the profile_par and
 * profile_stream phases, the parallel simulator of the sim_par phase,
 * and the fully-parallel cold Study of the study_cold phase (trace
 * build + profile + memoized grid, end to end from a spec). The profile
 * phase runs profileWorkload() at one job; it is the denominator of
 * profile_par_speedup (profile / profile_par wall time) and
 * stream_overhead. sim_par_speedup (columnar sequential / parallel) and
 * the other per-kernel ratios are summarized as geomeans in a "summary"
 * JSON block and on stdout.
 *
 * --filter selects kernels whose name matches REGEX (case-insensitive,
 * std::regex search). On its own it filters the full 26-kernel suite;
 * combined with --kernels it narrows that explicit set.
 *
 * Timings are the median of N repeats (N = --repeat, default 3): robust
 * against one noisy CI iteration in either direction, unlike best-of
 * (which a lucky run biases) or the mean (which a descheduled run
 * poisons). The regression check compares the normalized ns/op metrics
 * (profile, profile_par, sim, sim_par, predict, grid_memo) and the
 * profile_mb/stacks_mb footprints against the baseline with a relative
 * tolerance (default 0.25 = fail when >25% slower or larger); a metric
 * the baseline lacks is skipped. The baseline must come from the same
 * machine, which is why CI records it from the parent commit in the
 * same job. The profiler's parallel speedup --min-profile-par-speedup
 * is gated per kernel. The simulator gate --min-sim-par-speedup
 * applies to the geomean over the kernel set instead: the sim phases
 * run tens of milliseconds at smoke scale, where per-kernel ratios are
 * noise-dominated, and the two engines are timed interleaved (see
 * medianOfInterleaved) so machine-speed drift cancels out of the ratio.
 *
 * rppm_vs_sim = sim_ms / predict_ms (per kernel and as a geomean) is
 * the paper's Sec. VII claim: the cost of one more simulated design
 * point over one more predicted one. It is printed and recorded, not
 * gated.
 *
 * The grid_memo phase evaluates the standard sweep grid — the Table-IV
 * design points, a per-core DVFS ladder on Base and every distinct
 * thread placement on a 2+2 big.LITTLE machine — end to end through a
 * cold Study (profiling included) on the memoized component engine.
 *
 * The serve_warm phase measures the same sweep grid answered by a warm
 * in-process rppmd daemon (src/server) over its Unix-socket protocol:
 * the kernel's trace is served from an mmap'd file and its profile and
 * prediction memos stay resident across requests. serve_speedup =
 * study_cold_ms / serve_warm_ms is gated as a geomean via
 * --min-serve-speedup — the "predict many" payoff of keeping the
 * profile-once state alive in a daemon.
 *
 * The profile_par and profile_stream phases run the same engine at
 * --jobs workers: profile_par in one window spanning the trace,
 * profile_stream in bounded chunks (streamChunkRecords set) over the
 * same in-memory trace. stream_overhead = profile_stream_ms / profile_ms
 * is the price of chunked execution on a trace that would have fit in
 * memory anyway — its geomean is gated via --max-stream-overhead (CI
 * uses 1.15: the pipeline may cost at most 15% over the one-job
 * profile at smoke scale).
 *
 * profile_mb and stacks_mb are deterministic footprints, not timings:
 * the one-job profile's WorkloadProfile::approxResidentBytes and the
 * summed EpochStacks::approxResidentBytes of one full set of stack
 * bundles (every epoch, with its per-load stack distances built), in
 * MiB. Both are gated like the ns/op metrics.
 *
 * Before the first kernel is timed, one untimed pass runs it once (every
 * phase at one repeat): the first timed phases of a process otherwise
 * pay its page-fault, allocator and thread-start costs.
 *
 * Every medianOf-timed phase also records the getrusage max-RSS *delta*
 * across its repeats as <metric>_rss_delta_kb: how much that phase grew
 * the process's resident high-water mark. Deltas are order-dependent (a
 * phase dwarfed by an earlier one reports 0), but they make per-phase
 * memory growth visible in the nightly trajectory — in particular that
 * profile_stream's footprint stays small while traces scale.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <regex>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "pipeline.hh"
#include "profile/profiler.hh"
#include "rppm/predictor.hh"
#include "statstack/epoch_stacks.hh"
#include "server/client.hh"
#include "server/server.hh"
#include "sim/simulator.hh"
#include "study/study.hh"
#include "trace/columnar.hh"
#include "trace/trace_io.hh"
#include "workload/suite.hh"
#include "workload/workload.hh"

namespace {

using namespace rppm;
using namespace rppm::bench;
using Clock = std::chrono::steady_clock;

// Kernels with non-trivial multi-threaded memory interaction — the ones
// whose profiling cost dominates real Study grids. This is the reduced
// CI set; pass --kernels all for the full 26-kernel suite.
const char *kDefaultKernels =
    "bfs,cfd,srad,streamcluster,Canneal,Facesim,Fluidanimate,Vips";

struct KernelResult
{
    std::string name;
    std::string suite;
    uint32_t threads = 0;
    uint64_t ops = 0;
    // Wall milliseconds, median of N repeats.
    std::map<std::string, double> ms;
    // Growth of the process max-RSS high-water mark across a phase's
    // repeats, in kB (see file comment; kept separate from ms so the
    // ns/op machinery never treats it as a timing).
    std::map<std::string, double> rssDeltaKb;
    double profileParSpeedup = 0.0;
    double simParSpeedup = 0.0;
    double serveSpeedup = 0.0;
    double streamOverhead = 0.0;
    double rppmVsSim = 0.0;
    // Deterministic footprints in MiB (see file comment).
    double profileMb = 0.0;
    double stacksMb = 0.0;

    double
    nsPerOp(const std::string &metric) const
    {
        auto it = ms.find(metric);
        if (it == ms.end() || ops == 0)
            return 0.0;
        return it->second * 1e6 / static_cast<double>(ops);
    }

    /** Value of a gated metric: a footprint, or a phase's ns/op. */
    double
    gated(const std::string &metric) const
    {
        if (metric == "profile_mb")
            return profileMb;
        if (metric == "stacks_mb")
            return stacksMb;
        const std::string suffix = "_ns_per_op";
        return nsPerOp(metric.substr(0, metric.size() - suffix.size()));
    }
};

double
elapsedMs(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

/** Process max-RSS high-water mark in kB (Linux ru_maxrss unit). */
double
maxRssKb()
{
    struct rusage u;
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_maxrss);
}

/**
 * Median-of-N wall time of @p fn in milliseconds. The median tolerates a
 * single outlier repeat in either direction, so one descheduled (or one
 * suspiciously lucky) CI iteration cannot trip the regression gate.
 */
template <typename Fn>
double
medianOf(int repeat, Fn &&fn)
{
    std::vector<double> samples;
    samples.reserve(repeat);
    for (int r = 0; r < repeat; ++r) {
        const auto t0 = Clock::now();
        fn();
        const auto t1 = Clock::now();
        samples.push_back(elapsedMs(t0, t1));
    }
    std::sort(samples.begin(), samples.end());
    const size_t n = samples.size();
    return n % 2 == 1 ? samples[n / 2]
                      : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

/**
 * Median wall time of each phase in @p fns, measured interleaved: round
 * r runs every phase once, in order, before round r+1 starts. Back-to-
 * back blocks (all repeats of phase A, then all of phase B) let slow
 * machine-speed drift — throttling, a noisy neighbor on a shared runner
 * — land entirely on one phase and skew A/B ratios; interleaving spreads
 * the drift across all phases so their ratios stay honest.
 */
std::vector<double>
medianOfInterleaved(int repeat,
                    const std::vector<std::function<void()>> &fns)
{
    std::vector<std::vector<double>> samples(fns.size());
    for (int r = 0; r < std::max(repeat, 1); ++r) {
        for (size_t i = 0; i < fns.size(); ++i) {
            const auto t0 = Clock::now();
            fns[i]();
            const auto t1 = Clock::now();
            samples[i].push_back(elapsedMs(t0, t1));
        }
    }
    std::vector<double> medians(fns.size());
    for (size_t i = 0; i < fns.size(); ++i) {
        std::sort(samples[i].begin(), samples[i].end());
        const size_t n = samples[i].size();
        medians[i] = n % 2 == 1 ?
            samples[i][n / 2] :
            0.5 * (samples[i][n / 2 - 1] + samples[i][n / 2]);
    }
    return medians;
}

/**
 * The standard sweep grid of the grid phases: design points multiply
 * across heterogeneous axes (configs x DVFS states x placements), which
 * is exactly the shape the memoized component engine exists for.
 */
std::vector<MulticoreConfig>
sweepConfigs(uint32_t numThreads)
{
    std::vector<MulticoreConfig> grid = tableIvConfigs();

    // Per-core DVFS ladder on Base: cores 1..3 take every combination of
    // three frequency levels (core 0 pins the reference clock domain).
    const MulticoreConfig base = baseConfig();
    const double levels[] = {1.67, 2.5, 3.33};
    for (double a : levels) {
        for (double b : levels) {
            for (double c : levels) {
                char name[48];
                std::snprintf(name, sizeof name, "dvfs-%.2f-%.2f-%.2f",
                              a, b, c);
                grid.push_back(dvfsConfig(base, {2.5, a, b, c}, name));
            }
        }
    }

    // Every distinct placement of the kernel's threads on a 2+2
    // big.LITTLE machine.
    for (const MulticoreConfig &m :
         mappingSweep(bigLittleConfig(2, 2), numThreads)) {
        grid.push_back(m);
    }
    return grid;
}

KernelResult
measureKernel(const SuiteEntry &entry, double scale, int repeat,
              unsigned jobs, uint64_t stream_chunk)
{
    KernelResult result;
    const WorkloadSpec spec = scaleSpec(entry.spec, scale);
    result.name = spec.name;
    result.suite = entry.suite;
    result.threads = spec.numThreads();

    // Timed phase wrapper: wall median plus the max-RSS growth across
    // the phase's repeats (see file comment on order dependence).
    const auto timed = [&](const char *metric,
                           const std::function<void()> &fn) {
        const double rss0 = maxRssKb();
        result.ms[metric] = medianOf(repeat, fn);
        result.rssDeltaKb[metric] = maxRssKb() - rss0;
    };

    ColumnarTrace cols;
    timed("build", [&] { cols = synthesizeTrace(spec); });
    result.ops = cols.totalOps();

    // The one-job profile: the engine run serially, in one window.
    WorkloadProfile profile;
    timed("profile", [&] { profile = profileWorkload(cols); });

    // Footprints of the profile and of one full set of stack bundles.
    constexpr double kMiB = 1024.0 * 1024.0;
    result.profileMb =
        static_cast<double>(profile.approxResidentBytes()) / kMiB;
    uint64_t stackBytes = 0;
    for (const ThreadProfile &thread : profile.threads) {
        for (const EpochProfile &epoch : thread.epochs) {
            const EpochStacks stacks(epoch, true);
            stacks.microSd();
            stackBytes += stacks.approxResidentBytes();
        }
    }
    result.stacksMb = static_cast<double>(stackBytes) / kMiB;

    // The same engine and window on the harness's --jobs workers.
    // profile_par_speedup is one-job/--jobs wall time: > 1 means the
    // worker pool pays for itself (expect ~1.0 at --jobs 1 or on a
    // single-core machine).
    ProfilerOptions paropts;
    paropts.jobs = jobs;
    WorkloadProfile parProfile;
    timed("profile_par", [&] { parProfile = profileWorkload(cols, paropts); });
    if (parProfile.totalOps() != profile.totalOps())
        std::fprintf(stderr, "warning: parallel/serial op mismatch\n");
    result.profileParSpeedup =
        result.ms["profile"] / result.ms["profile_par"];

    // The same engine in bounded chunks over the same in-memory trace:
    // stream_overhead is what chunking costs relative to the one-job
    // one-window profile when memory pressure does not matter (the case
    // chunks exist for is gated by the CI memory-cap job instead). The
    // chunk size is scaled so smoke-sized traces still split into
    // enough chunks to exercise the pipeline overlap, like a real
    // out-of-core run would.
    ProfilerOptions streamopts = paropts;
    streamopts.streamChunkRecords = stream_chunk > 0 ?
        stream_chunk :
        std::max<uint64_t>(result.ops / (8 * spec.numThreads()), 4096);
    WorkloadProfile streamProfile;
    timed("profile_stream", [&] {
        streamProfile = profileWorkload(cols, streamopts);
    });
    if (streamProfile.totalOps() != profile.totalOps())
        std::fprintf(stderr, "warning: streaming/serial op mismatch\n");
    result.streamOverhead =
        result.ms["profile_stream"] / result.ms["profile"];

    const MulticoreConfig base = baseConfig();
    timed("predict", [&] {
        const RppmPrediction pred = predict(profile, base);
        if (pred.totalCycles <= 0.0)
            std::fprintf(stderr, "warning: degenerate prediction\n");
    });

    // The simulator oracle, two engines over the same trace. Both must
    // produce identical cycle counts (the identity tests pin the full
    // results to the committed corpus; the bench cross-checks the
    // headline number as a cheap canary). sim_par_speedup is the phased
    // parallel engine's win over sequential columnar on --jobs workers
    // (expect ~1.0 or slightly below with --jobs 1 or on a single-core
    // machine — the phases then pay their scatter overhead with no cores
    // to spend it on). The engines are measured interleaved (columnar,
    // parallel, repeat) so machine-speed drift cancels out of the ratio
    // instead of skewing whichever engine ran last.
    SimResult simCol, simPar;
    SimOptions simParOpts;
    simParOpts.jobs = jobs;
    const std::vector<double> simMs = medianOfInterleaved(
        repeat, {[&] { simCol = simulate(cols, base); },
                 [&] { simPar = simulate(cols, base, simParOpts); }});
    result.ms["sim"] = simMs[0];
    result.ms["sim_par"] = simMs[1];
    if (simPar.totalCycles != simCol.totalCycles)
        std::fprintf(stderr, "warning: parallel/columnar sim mismatch\n");
    result.simParSpeedup = result.ms["sim"] / result.ms["sim_par"];
    // What one more predicted design point saves over simulating it
    // (paper Sec. VII): > 1 means predict() is the cheaper answer.
    result.rppmVsSim = result.ms["sim"] / result.ms["predict"];

    // Full facade path over the standard sweep grid: fresh Study per
    // repeat (profiling included) so the numbers reflect what a cold
    // grid evaluation on the memoized component engine actually costs.
    const std::vector<MulticoreConfig> sweep = sweepConfigs(spec.numThreads());
    timed("grid_memo", [&] {
        Study study;
        study.addWorkload(cols)
            .addConfigs(sweep)
            .addEvaluator("rppm")
            .jobs(jobs);
        const StudyResult grid = study.run();
        if (grid.cells().empty())
            std::fprintf(stderr, "warning: empty grid\n");
    });

    // Cold end-to-end Study: trace synthesis + (parallel) profiling +
    // the memoized sweep grid, all inside one spec-backed Study with
    // every jobs knob set — the "first contact with a new workload"
    // number the profile-once-predict-many pitch rests on.
    timed("study_cold", [&] {
        Study study;
        study.addWorkload(spec)
            .addConfigs(sweep)
            .addEvaluator("rppm")
            .profilerOptions(paropts)
            .jobs(jobs);
        const StudyResult cold = study.run();
        if (cold.cells().empty())
            std::fprintf(stderr, "warning: empty cold study\n");
    });

    // Warm-daemon serving: an in-process rppmd holding this kernel's
    // trace (mmap'd), profile and prediction memos hot answers the same
    // sweep grid over the wire. serve_speedup = study_cold / serve_warm
    // is the latency win of prediction-as-a-service over standing up a
    // cold in-process Study for every query.
    {
        const std::string tracePath =
            "/tmp/rppm_bench_" +
            std::to_string(static_cast<unsigned long>(::getpid())) + "_" +
            spec.name + ".rppmtrc";
        saveTraceToFile(cols, tracePath);
        server::ServerOptions sopts;
        sopts.socketPath = tracePath + ".sock";
        sopts.workers = jobs;
        sopts.jobs = jobs;
        server::RppmServer daemon(sopts);
        daemon.start();
        server::RppmClient client;
        client.connect(sopts.socketPath);
        server::Query query;
        query.kind = server::WorkloadRefKind::TracePath;
        query.workload = tracePath;
        query.profiler = paropts;
        query.configs = sweep;
        // First contact warms the daemon (profile + memo tables), the
        // measured repeats are the steady-state request latency.
        if (client.evaluate(query).size() != sweep.size())
            std::fprintf(stderr, "warning: short serve grid\n");
        timed("serve_warm", [&] {
            if (client.evaluate(query).size() != sweep.size())
                std::fprintf(stderr, "warning: short serve grid\n");
        });
        client.close();
        daemon.stop();
        std::filesystem::remove(tracePath);
        result.serveSpeedup =
            result.ms["study_cold"] / result.ms["serve_warm"];
    }

    return result;
}

/** Geometric mean of one metric across kernels (0 when undefined). */
double
geomean(const std::vector<KernelResult> &results,
        const std::function<double(const KernelResult &)> &get)
{
    double logSum = 0.0;
    size_t n = 0;
    for (const KernelResult &r : results) {
        const double v = get(r);
        if (v > 0.0) {
            logSum += std::log(v);
            ++n;
        }
    }
    return n == 0 ? 0.0 : std::exp(logSum / static_cast<double>(n));
}

// -------------------------------------------------------------- JSON ---

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

std::string
resultsToJson(const std::vector<KernelResult> &results, double scale,
              int repeat, unsigned jobs)
{
    std::ostringstream os;
    os.precision(6);
    os << std::fixed;
    os << "{\n"
       << "  \"schema\": \"rppm-bench-perf-1\",\n"
       << "  \"scale\": " << scale << ",\n"
       << "  \"repeat\": " << repeat << ",\n"
       << "  \"jobs\": " << jobs << ",\n"
       << "  \"kernels\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
        const KernelResult &r = results[i];
        os << "    {\n"
           << "      \"name\": \"" << jsonEscape(r.name) << "\",\n"
           << "      \"suite\": \"" << jsonEscape(r.suite) << "\",\n"
           << "      \"threads\": " << r.threads << ",\n"
           << "      \"ops\": " << r.ops << ",\n";
        for (const auto &[metric, ms] : r.ms) {
            os << "      \"" << metric << "_ms\": " << ms << ",\n"
               << "      \"" << metric << "_ns_per_op\": "
               << r.nsPerOp(metric) << ",\n";
        }
        for (const auto &[metric, kb] : r.rssDeltaKb)
            os << "      \"" << metric << "_rss_delta_kb\": " << kb
               << ",\n";
        os << "      \"profile_mb\": " << r.profileMb << ",\n"
           << "      \"stacks_mb\": " << r.stacksMb << ",\n"
           << "      \"stream_overhead\": " << r.streamOverhead << ",\n"
           << "      \"profile_par_speedup\": " << r.profileParSpeedup
           << ",\n"
           << "      \"sim_par_speedup\": " << r.simParSpeedup << ",\n"
           << "      \"serve_speedup\": " << r.serveSpeedup << ",\n"
           << "      \"rppm_vs_sim\": " << r.rppmVsSim << "\n"
           << "    }" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    // Geomean summary across the measured kernel set, precomputed so
    // trajectory dashboards (and humans) never re-derive it from the
    // per-kernel entries.
    os << "  ],\n"
       << "  \"summary\": {\n"
       << "    \"profile_par_speedup_geomean\": "
       << geomean(results, [](const KernelResult &r) {
              return r.profileParSpeedup;
          })
       << ",\n"
       << "    \"sim_par_speedup_geomean\": "
       << geomean(results, [](const KernelResult &r) {
              return r.simParSpeedup;
          })
       << ",\n"
       << "    \"stream_overhead_geomean\": "
       << geomean(results, [](const KernelResult &r) {
              return r.streamOverhead;
          })
       << ",\n"
       << "    \"study_cold_ms_geomean\": "
       << geomean(results, [](const KernelResult &r) {
              const auto it = r.ms.find("study_cold");
              return it == r.ms.end() ? 0.0 : it->second;
          })
       << ",\n"
       << "    \"serve_warm_ms_geomean\": "
       << geomean(results, [](const KernelResult &r) {
              const auto it = r.ms.find("serve_warm");
              return it == r.ms.end() ? 0.0 : it->second;
          })
       << ",\n"
       << "    \"serve_speedup_geomean\": "
       << geomean(results, [](const KernelResult &r) {
              return r.serveSpeedup;
          })
       << ",\n"
       << "    \"rppm_vs_sim_geomean\": "
       << geomean(results, [](const KernelResult &r) {
              return r.rppmVsSim;
          })
       << "\n  }\n}\n";
    return os.str();
}

/**
 * Minimal JSON reader for the harness's own schema: parses objects,
 * arrays, strings and numbers into flat per-kernel metric maps. Not a
 * general-purpose parser — it only needs to read what resultsToJson
 * wrote.
 */
class BaselineParser
{
  public:
    explicit BaselineParser(const std::string &text) : s_(text) {}

    /** kernel name -> (metric -> value). Throws std::runtime_error. */
    std::map<std::string, std::map<std::string, double>>
    parse()
    {
        std::map<std::string, std::map<std::string, double>> out;
        // Find the "kernels" array and walk its objects.
        seek("\"kernels\"");
        expect('[');
        skipWs();
        while (peek() == '{') {
            std::map<std::string, double> metrics;
            std::string name;
            expect('{');
            skipWs();
            while (peek() != '}') {
                const std::string key = string();
                expect(':');
                skipWs();
                if (peek() == '"') {
                    const std::string value = string();
                    if (key == "name")
                        name = value;
                } else {
                    metrics[key] = number();
                }
                skipWs();
                if (peek() == ',') {
                    ++pos_;
                    skipWs();
                }
            }
            expect('}');
            if (name.empty())
                throw std::runtime_error("baseline kernel without name");
            out[name] = std::move(metrics);
            skipWs();
            if (peek() == ',') {
                ++pos_;
                skipWs();
            }
        }
        expect(']');
        return out;
    }

  private:
    void
    seek(const std::string &needle)
    {
        const size_t at = s_.find(needle, pos_);
        if (at == std::string::npos)
            throw std::runtime_error("baseline JSON: missing " + needle);
        pos_ = at + needle.size();
        skipWs();
        expect(':');
        skipWs();
    }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_]))) {
            ++pos_;
        }
    }

    char
    peek()
    {
        if (pos_ >= s_.size())
            throw std::runtime_error("baseline JSON: unexpected end");
        return s_[pos_];
    }

    void
    expect(char c)
    {
        skipWs();
        if (peek() != c) {
            throw std::runtime_error(
                std::string("baseline JSON: expected '") + c + "'");
        }
        ++pos_;
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        while (peek() != '"') {
            char c = s_[pos_++];
            if (c == '\\')
                c = s_[pos_++];
            out.push_back(c);
        }
        ++pos_;
        return out;
    }

    double
    number()
    {
        skipWs();
        size_t end = pos_;
        while (end < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[end])) ||
                s_[end] == '.' || s_[end] == '-' || s_[end] == '+' ||
                s_[end] == 'e' || s_[end] == 'E')) {
            ++end;
        }
        if (end == pos_)
            throw std::runtime_error("baseline JSON: expected number");
        const double v = std::stod(s_.substr(pos_, end - pos_));
        pos_ = end;
        return v;
    }

    const std::string &s_;
    size_t pos_ = 0;
};

// -------------------------------------------------------- regression ---

/** Metrics gated against the baseline: the phase timings normalized
 *  per op (so trace size changes show up too) and the footprints. */
const char *kGatedMetrics[] = {"profile_ns_per_op",
                               "profile_par_ns_per_op",
                               "sim_ns_per_op", "sim_par_ns_per_op",
                               "predict_ns_per_op", "grid_memo_ns_per_op",
                               "profile_mb", "stacks_mb"};

int
checkRegressions(const std::vector<KernelResult> &results,
                 const std::string &baseline_path, double max_regression,
                 double min_profile_par_speedup, double min_sim_par_speedup,
                 double min_serve_speedup, double max_stream_overhead)
{
    std::ifstream is(baseline_path);
    if (!is) {
        std::fprintf(stderr, "bench_perf: cannot open baseline %s\n",
                     baseline_path.c_str());
        return 2;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    std::map<std::string, std::map<std::string, double>> baseline;
    try {
        baseline = BaselineParser(buf.str()).parse();
    } catch (const std::exception &ex) {
        std::fprintf(stderr, "bench_perf: bad baseline: %s\n", ex.what());
        return 2;
    }

    int failures = 0;
    for (const KernelResult &r : results) {
        const auto base_it = baseline.find(r.name);
        if (base_it == baseline.end()) {
            std::printf("  %-16s (no baseline entry, skipped)\n",
                        r.name.c_str());
            continue;
        }
        for (const char *metric : kGatedMetrics) {
            const auto m = base_it->second.find(metric);
            if (m == base_it->second.end() || m->second <= 0.0)
                continue;
            const double now = r.gated(metric);
            const double ratio = now / m->second;
            const bool bad = ratio > 1.0 + max_regression;
            std::printf("  %-16s %-24s %8.1f -> %8.1f (%+5.1f%%)%s\n",
                        r.name.c_str(), metric, m->second, now,
                        (ratio - 1.0) * 100.0, bad ? "  REGRESSION" : "");
            if (bad)
                ++failures;
        }
        if (min_profile_par_speedup > 0.0 &&
            r.profileParSpeedup < min_profile_par_speedup) {
            std::printf("  %-16s profile_par_speedup %.2fx < required "
                        "%.2fx  REGRESSION\n",
                        r.name.c_str(), r.profileParSpeedup,
                        min_profile_par_speedup);
            ++failures;
        }
    }
    // The simulator-engine gate applies to the geomean over the kernel
    // set, not per kernel: at smoke scale the per-kernel sim phases run
    // tens of milliseconds, where scheduler and frequency noise swings
    // individual engine ratios by tens of percent run to run. The
    // geomean over the whole set is the stable statistic (the profile
    // gate keeps its per-kernel form — its margin is several times
    // wider).
    if (min_sim_par_speedup > 0.0) {
        const double g = geomean(results, [](const KernelResult &r) {
            return r.simParSpeedup;
        });
        const bool bad = g < min_sim_par_speedup;
        std::printf("  %-16s sim_par_speedup geomean %.2fx "
                    "(required %.2fx)%s\n",
                    "(all kernels)", g, min_sim_par_speedup,
                    bad ? "  REGRESSION" : "");
        if (bad)
            ++failures;
    }
    // The streaming-overhead gate is self-relative (streaming vs. one-job
    // wall time in the same run) and a geomean, for the same noise
    // reasons as the sim gates; profile_stream stays out of
    // kGatedMetrics because the ratio, not the machine-dependent ns/op,
    // is the contract.
    if (max_stream_overhead > 0.0) {
        const double g = geomean(results, [](const KernelResult &r) {
            return r.streamOverhead;
        });
        const bool bad = g > max_stream_overhead;
        std::printf("  %-16s stream_overhead geomean %.2fx "
                    "(allowed %.2fx)%s\n",
                    "(all kernels)", g, max_stream_overhead,
                    bad ? "  REGRESSION" : "");
        if (bad)
            ++failures;
    }
    // The serving gate is a geomean for the same reason: a warm daemon
    // round-trip is milliseconds at smoke scale, so per-kernel ratios
    // are dominated by scheduler noise.
    if (min_serve_speedup > 0.0) {
        const double g = geomean(results, [](const KernelResult &r) {
            return r.serveSpeedup;
        });
        const bool bad = g < min_serve_speedup;
        std::printf("  %-16s serve_speedup geomean %.2fx "
                    "(required %.2fx)%s\n",
                    "(all kernels)", g, min_serve_speedup,
                    bad ? "  REGRESSION" : "");
        if (bad)
            ++failures;
    }
    if (failures > 0) {
        std::fprintf(stderr,
                     "bench_perf: %d metric(s) regressed beyond %.0f%%\n",
                     failures, max_regression * 100.0);
        return 1;
    }
    std::printf("bench_perf: no regressions (tolerance %.0f%%)\n",
                max_regression * 100.0);
    return 0;
}

void
writeFileOrDie(const std::string &path, const std::string &content)
{
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "bench_perf: cannot write %s\n", path.c_str());
        std::exit(2);
    }
    os << content;
}

std::vector<std::string>
splitCsv(const std::string &list)
{
    std::vector<std::string> out;
    std::stringstream ss(list);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string kernels = kDefaultKernels;
    bool kernels_given = false;
    std::string filter;
    // Default to the gitignored scratch name so casual local runs never
    // clobber the committed full-scale BENCH_results.json; CI and
    // intentional refreshes pass --out BENCH_results.json explicitly.
    std::string out_path = "BENCH_results.local.json";
    std::string baseline_path;
    std::string write_baseline_path;
    double scale = 0.25;
    double max_regression = 0.25;
    double min_profile_par_speedup = 0.0;
    double min_sim_par_speedup = 0.0;
    double min_serve_speedup = 0.0;
    double max_stream_overhead = 0.0;
    uint64_t stream_chunk = 0;
    int repeat = 3;
    unsigned jobs = 1;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "bench_perf: %s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--kernels") {
            kernels = next();
            kernels_given = true;
        } else if (arg == "--filter") {
            filter = next();
        } else if (arg == "--scale") {
            scale = std::stod(next());
        } else if (arg == "--repeat") {
            repeat = std::max(1, std::atoi(next().c_str()));
        } else if (arg == "--jobs") {
            jobs = static_cast<unsigned>(
                std::max(1, std::atoi(next().c_str())));
        } else if (arg == "--out") {
            out_path = next();
        } else if (arg == "--baseline") {
            baseline_path = next();
        } else if (arg == "--max-regression") {
            max_regression = std::stod(next());
        } else if (arg == "--min-profile-par-speedup") {
            min_profile_par_speedup = std::stod(next());
        } else if (arg == "--min-sim-par-speedup") {
            min_sim_par_speedup = std::stod(next());
        } else if (arg == "--min-serve-speedup") {
            min_serve_speedup = std::stod(next());
        } else if (arg == "--max-stream-overhead") {
            max_stream_overhead = std::stod(next());
        } else if (arg == "--stream-chunk") {
            stream_chunk = std::strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--write-baseline") {
            write_baseline_path = next();
        } else if (arg == "--list") {
            for (const SuiteEntry &e : fullSuite())
                std::printf("%s\n", e.spec.name.c_str());
            return 0;
        } else {
            std::fprintf(stderr, "bench_perf: unknown option %s\n",
                         arg.c_str());
            return 2;
        }
    }

    std::vector<SuiteEntry> entries;
    if (kernels == "all" || (!filter.empty() && !kernels_given)) {
        // --filter on its own selects from the whole suite.
        entries = fullSuite();
    } else {
        for (const std::string &name : splitCsv(kernels)) {
            const auto entry = findBenchmark(name);
            if (!entry) {
                std::fprintf(stderr, "bench_perf: unknown kernel %s\n",
                             name.c_str());
                return 2;
            }
            entries.push_back(*entry);
        }
    }
    if (!filter.empty()) {
        std::regex re;
        try {
            re.assign(filter, std::regex::icase);
        } catch (const std::regex_error &e) {
            std::fprintf(stderr, "bench_perf: bad --filter regex: %s\n",
                         e.what());
            return 2;
        }
        std::erase_if(entries, [&re](const SuiteEntry &e) {
            return !std::regex_search(e.spec.name, re);
        });
        if (entries.empty()) {
            std::fprintf(stderr,
                         "bench_perf: --filter '%s' matches no kernel\n",
                         filter.c_str());
            return 2;
        }
    }

    std::printf("bench_perf: %zu kernel(s), scale %.2f, median of %d\n",
                entries.size(), scale, repeat);
    // Untimed warm-up: the first kernel once, every phase (file comment).
    measureKernel(entries.front(), scale, 1, jobs, stream_chunk);

    std::vector<KernelResult> results;
    for (const SuiteEntry &entry : entries) {
        KernelResult r =
            measureKernel(entry, scale, repeat, jobs, stream_chunk);
        std::printf("  %-16s ops=%8llu build=%7.1fms profile=%7.1fms "
                    "(par %7.1fms, %.2fx; stream %7.1fms, %.2fx) "
                    "sim=%7.1fms (par %7.1fms, %.2fx) predict=%6.2fms "
                    "(rppm_vs_sim %.2fx) grid=%7.1fms cold=%7.1fms "
                    "serve=%6.1fms (%.2fx) profile_mb=%.1f "
                    "stacks_mb=%.1f\n",
                    r.name.c_str(),
                    static_cast<unsigned long long>(r.ops), r.ms["build"],
                    r.ms["profile"], r.ms["profile_par"],
                    r.profileParSpeedup, r.ms["profile_stream"],
                    r.streamOverhead, r.ms["sim"], r.ms["sim_par"],
                    r.simParSpeedup, r.ms["predict"], r.rppmVsSim,
                    r.ms["grid_memo"], r.ms["study_cold"],
                    r.ms["serve_warm"], r.serveSpeedup, r.profileMb,
                    r.stacksMb);
        results.push_back(std::move(r));
    }
    std::printf("bench_perf: geomean profile_par_speedup %.2fx (jobs %u) | "
                "stream_overhead %.2fx | sim_par_speedup %.2fx | "
                "study_cold %.1fms | serve_warm %.1fms (%.2fx) | "
                "rppm_vs_sim %.2fx\n",
                geomean(results, [](const KernelResult &r) {
                    return r.profileParSpeedup;
                }),
                jobs,
                geomean(results, [](const KernelResult &r) {
                    return r.streamOverhead;
                }),
                geomean(results, [](const KernelResult &r) {
                    return r.simParSpeedup;
                }),
                geomean(results, [](const KernelResult &r) {
                    const auto it = r.ms.find("study_cold");
                    return it == r.ms.end() ? 0.0 : it->second;
                }),
                geomean(results, [](const KernelResult &r) {
                    const auto it = r.ms.find("serve_warm");
                    return it == r.ms.end() ? 0.0 : it->second;
                }),
                geomean(results, [](const KernelResult &r) {
                    return r.serveSpeedup;
                }),
                geomean(results, [](const KernelResult &r) {
                    return r.rppmVsSim;
                }));

    const std::string json = resultsToJson(results, scale, repeat, jobs);
    writeFileOrDie(out_path, json);
    std::printf("bench_perf: wrote %s\n", out_path.c_str());
    if (!write_baseline_path.empty()) {
        writeFileOrDie(write_baseline_path, json);
        std::printf("bench_perf: wrote baseline %s\n",
                    write_baseline_path.c_str());
    }

    if (!baseline_path.empty()) {
        return checkRegressions(results, baseline_path, max_regression,
                                min_profile_par_speedup,
                                min_sim_par_speedup, min_serve_speedup,
                                max_stream_overhead);
    }
    return 0;
}
