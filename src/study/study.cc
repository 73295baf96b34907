#include "study/study.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>

#include "common/parallel.hh"
#include "common/stats.hh"

namespace rppm {

// ---------------------------------------------------------- StudyResult ---

StudyResult::StudyResult(std::vector<std::string> workloads,
                         std::vector<std::string> configs,
                         std::vector<std::string> evaluators,
                         std::vector<Evaluation> cells)
    : workloads_(std::move(workloads)), configs_(std::move(configs)),
      evaluators_(std::move(evaluators)), cells_(std::move(cells))
{
}

namespace {

size_t
indexOf(const std::vector<std::string> &axis, const std::string &label)
{
    for (size_t i = 0; i < axis.size(); ++i) {
        if (axis[i] == label)
            return i;
    }
    return axis.size();
}

/** Minimal JSON string escaping for names. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default: out.push_back(c);
        }
    }
    return out;
}

/** CSV-escape a field (quote when it contains a separator). */
std::string
csvEscape(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += "\"\"";
        else
            out.push_back(c);
    }
    out += '"';
    return out;
}

} // namespace

const Evaluation *
StudyResult::find(const std::string &workload, const std::string &config,
                  const std::string &evaluator) const
{
    const size_t w = indexOf(workloads_, workload);
    const size_t c = indexOf(configs_, config);
    const size_t e = indexOf(evaluators_, evaluator);
    if (w == workloads_.size() || c == configs_.size() ||
        e == evaluators_.size()) {
        return nullptr;
    }
    const size_t idx =
        (w * configs_.size() + c) * evaluators_.size() + e;
    return &cells_[idx];
}

const Evaluation &
StudyResult::at(const std::string &workload, const std::string &config,
                const std::string &evaluator) const
{
    const Evaluation *cell = find(workload, config, evaluator);
    if (!cell) {
        throw std::out_of_range("no study cell (" + workload + ", " +
                                config + ", " + evaluator + ")");
    }
    return *cell;
}

std::vector<const Evaluation *>
StudyResult::sweep(const std::string &workload,
                   const std::string &evaluator) const
{
    std::vector<const Evaluation *> cells;
    cells.reserve(configs_.size());
    for (const std::string &config : configs_)
        cells.push_back(&at(workload, config, evaluator));
    return cells;
}

double
StudyResult::errorVs(const std::string &workload, const std::string &config,
                     const std::string &evaluator,
                     const std::string &oracle) const
{
    const double oracleCycles = at(workload, config, oracle).cycles;
    if (oracleCycles == 0.0) {
        throw std::domain_error(
            "errorVs: oracle cell (" + workload + ", " + config + ", " +
            oracle + ") has zero cycles; relative error is undefined");
    }
    return absRelativeError(at(workload, config, evaluator).cycles,
                            oracleCycles);
}

std::string
StudyResult::csv() const
{
    std::ostringstream os;
    os.precision(17);
    os << "workload,config,evaluator,cycles,seconds\n";
    for (const Evaluation &cell : cells_) {
        os << csvEscape(cell.workload) << ',' << csvEscape(cell.config)
           << ',' << csvEscape(cell.evaluator) << ',' << cell.cycles << ','
           << cell.seconds << '\n';
    }
    return os.str();
}

std::string
StudyResult::json() const
{
    std::ostringstream os;
    os.precision(17);
    os << "{\n  \"cells\": [\n";
    for (size_t i = 0; i < cells_.size(); ++i) {
        const Evaluation &cell = cells_[i];
        os << "    {\"workload\": \"" << jsonEscape(cell.workload)
           << "\", \"config\": \"" << jsonEscape(cell.config)
           << "\", \"evaluator\": \"" << jsonEscape(cell.evaluator)
           << "\", \"cycles\": " << cell.cycles
           << ", \"seconds\": " << cell.seconds;
        if (!cell.threadSeconds.empty()) {
            os << ", \"thread_seconds\": [";
            for (size_t t = 0; t < cell.threadSeconds.size(); ++t) {
                os << (t > 0 ? ", " : "") << cell.threadSeconds[t];
            }
            os << ']';
        }
        os << '}' << (i + 1 < cells_.size() ? "," : "") << '\n';
    }
    os << "  ]\n}\n";
    return os.str();
}

namespace {

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream os(path);
    if (!os)
        throw std::runtime_error("cannot open '" + path + "' for writing");
    os << content;
    if (!os)
        throw std::runtime_error("error writing '" + path + "'");
}

} // namespace

void
StudyResult::saveCsv(const std::string &path) const
{
    writeFile(path, csv());
}

void
StudyResult::saveJson(const std::string &path) const
{
    writeFile(path, json());
}

// ---------------------------------------------------------------- Study ---

Study::Study() = default;

namespace {

/** Names are registry keys; a duplicate would silently shadow the
 *  earlier axis entry in every name-keyed StudyResult lookup. */
void
requireFresh(const std::vector<std::string> &names, const std::string &name,
             const char *axis)
{
    for (const std::string &existing : names) {
        if (existing == name) {
            throw std::invalid_argument(
                std::string("duplicate ") + axis + " label '" + name +
                "' in study");
        }
    }
}

} // namespace

Study &
Study::add(WorkloadSource source)
{
    std::vector<std::string> names;
    for (const WorkloadSource &existing : sources_)
        names.push_back(existing.name());
    requireFresh(names, source.name(), "workload");
    sources_.push_back(std::move(source));
    return *this;
}

Study &
Study::addWorkload(const WorkloadSpec &spec)
{
    return add(WorkloadSource(spec));
}

Study &
Study::addWorkload(const SuiteEntry &entry)
{
    return add(WorkloadSource(entry.spec));
}

Study &
Study::addWorkload(ColumnarTrace trace)
{
    return add(WorkloadSource(std::move(trace)));
}

Study &
Study::addWorkload(WorkloadProfile profile)
{
    return add(WorkloadSource(std::move(profile)));
}

Study &
Study::addSuite(const std::vector<SuiteEntry> &entries)
{
    for (const SuiteEntry &entry : entries)
        addWorkload(entry);
    return *this;
}

Study &
Study::addConfig(MulticoreConfig cfg)
{
    std::vector<std::string> names;
    for (const MulticoreConfig &existing : configs_)
        names.push_back(existing.name);
    requireFresh(names, cfg.name, "config");
    configs_.push_back(std::move(cfg));
    return *this;
}

Study &
Study::addConfigs(const std::vector<MulticoreConfig> &cfgs)
{
    for (const MulticoreConfig &cfg : cfgs)
        addConfig(cfg);
    return *this;
}

Study &
Study::addEvaluator(const std::string &registeredName)
{
    return addEvaluator(makeEvaluator(registeredName));
}

Study &
Study::addEvaluator(std::unique_ptr<Evaluator> evaluator)
{
    if (!evaluator)
        throw std::invalid_argument("null evaluator");
    std::vector<std::string> names;
    for (const auto &existing : evaluators_)
        names.push_back(existing->label());
    requireFresh(names, evaluator->label(), "evaluator");
    evaluators_.push_back(std::move(evaluator));
    return *this;
}

Study &
Study::jobs(unsigned n)
{
    jobs_ = n;
    return *this;
}

Study &
Study::profileDirectory(std::string dir)
{
    cache_.setDirectory(std::move(dir));
    return *this;
}

Study &
Study::profilerOptions(const ProfilerOptions &opts)
{
    options_.profiler = opts;
    return *this;
}

Study &
Study::rppmOptions(const RppmOptions &opts)
{
    options_.rppm = opts;
    return *this;
}

Study &
Study::simOptions(const SimOptions &opts)
{
    options_.sim = opts;
    return *this;
}

const WorkloadSource &
Study::sourceByName(const std::string &name) const
{
    for (const WorkloadSource &source : sources_) {
        if (source.name() == name)
            return source;
    }
    throw std::invalid_argument("no workload '" + name + "' in study");
}

std::shared_ptr<const WorkloadProfile>
Study::profile(const std::string &workload)
{
    return sourceByName(workload).profile(options_.profiler, cache_);
}

StudyResult
Study::run()
{
    if (sources_.empty())
        throw std::invalid_argument("study has no workloads");
    if (configs_.empty())
        throw std::invalid_argument("study has no configurations");
    if (evaluators_.empty())
        throw std::invalid_argument("study has no evaluators");

    // Duplicate axis labels are rejected at insertion time (add,
    // addConfig, addEvaluator), so the axes are unique by construction
    // here.
    std::vector<std::string> workloadNames, configNames, evaluatorNames;
    for (const WorkloadSource &source : sources_)
        workloadNames.push_back(source.name());
    for (const MulticoreConfig &cfg : configs_)
        configNames.push_back(cfg.name);
    for (const auto &evaluator : evaluators_)
        evaluatorNames.push_back(evaluator->label());

    // Trace-consuming backends cannot serve profile-only sources.
    for (const auto &evaluator : evaluators_) {
        if (!evaluator->needsTrace())
            continue;
        for (const WorkloadSource &source : sources_) {
            if (!source.hasTrace()) {
                throw std::invalid_argument(
                    "evaluator '" + evaluator->label() +
                    "' needs a trace but workload '" + source.name() +
                    "' is profile-only");
            }
        }
    }

    for (const MulticoreConfig &cfg : configs_)
        cfg.validate();

    // Cold-start pipeline: synthesize the trace and compute the profile
    // of every trace-backed workload on the worker pool *before* grid
    // evaluation. Without this, the cells of the first workload are
    // claimed by all workers at once and every one of them blocks
    // on the same in-flight ProfileCache future while the remaining
    // workloads' builds sit idle — a cold multi-kernel Study would
    // serialize its profile phase. With it, distinct workloads' trace
    // synthesis and profiling overlap (and each profile may itself fan
    // out further when options().profiler.jobs > 1). Traces are only
    // forced eagerly when some evaluator replays them: profile() pulls
    // the trace lazily on a cache miss, so a warm run against a
    // serialized profile tier still skips trace synthesis entirely.
    ParallelExecutor executor(jobs_);
    const bool anyProfileUser =
        std::any_of(evaluators_.begin(), evaluators_.end(),
                    [](const auto &e) { return !e->needsTrace(); });
    const bool anyTraceUser =
        std::any_of(evaluators_.begin(), evaluators_.end(),
                    [](const auto &e) { return e->needsTrace(); });
    executor.forEach(sources_.size(), [&](size_t w) {
        const WorkloadSource &source = sources_[w];
        if (!source.hasTrace())
            return;
        if (anyTraceUser)
            source.columnar(options_.profiler.jobs);
        if (anyProfileUser)
            source.profile(options_.profiler, cache_);
    });

    std::vector<Evaluation> cells(sources_.size() * configs_.size() *
                                  evaluators_.size());

    // Grid phase 1: every row's prefetch tasks in one batch. For the
    // memo-backed rppm backend a task is one distinct phase-1 thread
    // evaluation (a full replay of one profile thread), so the pool
    // balances those rather than whole design points: a DVFS or
    // placement sweep needs few distinct evaluations for many points,
    // and points handed out whole would queue behind the one worker
    // that evaluates their shared keys. Rows are planned on the pool
    // too, so the profiles of variant evaluators with their own
    // profiler options are built side by side.
    PredictionMemoPool pool;
    const size_t numRows = sources_.size() * evaluators_.size();
    std::vector<std::vector<std::function<void()>>> rowTasks(numRows);
    executor.forEach(numRows, [&](size_t r) {
        const EvalContext ctx{sources_[r / evaluators_.size()], options_,
                              cache_, pool};
        rowTasks[r] = evaluators_[r % evaluators_.size()]->prefetchTasks(
            ctx, configs_);
    });
    std::vector<std::function<void()>> tasks;
    for (std::vector<std::function<void()>> &row : rowTasks) {
        for (std::function<void()> &task : row)
            tasks.push_back(std::move(task));
    }
    executor.forEach(tasks.size(), [&](size_t i) { tasks[i](); });

    // Grid phase 2: one cell per work item. An rppm cell is now phase-1
    // cache hits plus its phase-2 sync run; identical design points
    // still evaluate their shared keys once (the caches are
    // single-flight). `cells` is pre-sized and each item writes only
    // its own index, so workers never alias a slot and the vector needs
    // no lock (the executor's joins publish the writes): the registry
    // is deterministic for any job count.
    executor.forEach(cells.size(), [&](size_t idx) {
        const size_t e = idx % evaluators_.size();
        const size_t c = (idx / evaluators_.size()) % configs_.size();
        const size_t w = idx / (evaluators_.size() * configs_.size());
        const EvalContext ctx{sources_[w], options_, cache_, pool};
        cells[idx] = evaluators_[e]->evaluate(ctx, configs_[c]);
    });

    lastMemoStats_.reset();
    if (!pool.empty()) {
        // One-line cache-efficiency summary so memoization wins (or
        // their absence) are visible per study; RPPM_STUDY_QUIET=1
        // silences it for embedders (the data stays available via
        // lastMemoStats()).
        lastMemoStats_ = pool.stats();
        // rppm-lint: rng-ok(gates the stderr summary line only)
        const char *quiet = std::getenv("RPPM_STUDY_QUIET");
        if (!quiet || quiet[0] == '\0' || quiet[0] == '0') {
            std::fprintf(stderr, "Study: component memo: %s\n",
                         lastMemoStats_->summary().c_str());
        }
    }

    return StudyResult(std::move(workloadNames), std::move(configNames),
                       std::move(evaluatorNames), std::move(cells));
}

} // namespace rppm
