/**
 * @file
 * The Study facade: the single front door for all evaluation.
 *
 * A Study owns a set of workloads (specs, traces or bare profiles), a
 * set of multicore configurations and a set of evaluator backends, and
 * evaluates the full (workload x config x evaluator) grid:
 *
 *     StudyResult r = Study()
 *         .addSuite(parsecSuite())
 *         .addConfigs(tableIvConfigs())
 *         .addEvaluator("rppm")
 *         .addEvaluator("sim")
 *         .jobs(8)
 *         .run();
 *     double err = r.errorVs("Vips", "Base", "rppm", "sim");
 *
 * Profiles are produced at most once per (workload, profiler options)
 * through a two-tier ProfileCache (in-memory, plus serialized on disk
 * when profileDirectory() is set), and grid cells are evaluated on a
 * worker pool with deterministic result ordering: jobs(1) and jobs(16)
 * return identical registries. The result is a queryable registry with
 * CSV and JSON export.
 *
 * This replaces the hand-wired generate/simulate/profile/predict chains
 * that bench/ and examples/ used to carry; rppm::predict and friends
 * remain available for single evaluations.
 */

#ifndef RPPM_STUDY_STUDY_HH
#define RPPM_STUDY_STUDY_HH

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arch/config.hh"
#include "rppm/memo.hh"
#include "study/evaluator.hh"
#include "study/profile_cache.hh"
#include "study/source.hh"
#include "workload/suite.hh"

namespace rppm {

/** Queryable registry of a completed study grid. */
class StudyResult
{
  public:
    StudyResult() = default;
    StudyResult(std::vector<std::string> workloads,
                std::vector<std::string> configs,
                std::vector<std::string> evaluators,
                std::vector<Evaluation> cells);

    /** Axis labels, in insertion order. */
    const std::vector<std::string> &workloads() const { return workloads_; }
    const std::vector<std::string> &configs() const { return configs_; }
    const std::vector<std::string> &evaluators() const
    {
        return evaluators_;
    }

    /** All cells, ordered workload-major, then config, then evaluator. */
    const std::vector<Evaluation> &cells() const { return cells_; }

    /** Cell lookup; find() returns nullptr / at() throws
     *  std::out_of_range when absent. */
    const Evaluation *find(const std::string &workload,
                           const std::string &config,
                           const std::string &evaluator) const;
    const Evaluation &at(const std::string &workload,
                         const std::string &config,
                         const std::string &evaluator) const;

    /** All cells of one (workload, evaluator) pair, per config. */
    std::vector<const Evaluation *>
    sweep(const std::string &workload, const std::string &evaluator) const;

    /**
     * Absolute relative cycle error of @p evaluator versus @p oracle on
     * one grid point: |eval - oracle| / oracle. Throws std::domain_error
     * when the oracle cell reports zero cycles (the error is undefined).
     */
    double errorVs(const std::string &workload, const std::string &config,
                   const std::string &evaluator,
                   const std::string &oracle = "sim") const;

    /** Export: one row per cell (workload, config, evaluator, cycles,
     *  seconds). */
    std::string csv() const;
    std::string json() const;
    void saveCsv(const std::string &path) const;
    void saveJson(const std::string &path) const;

  private:
    std::vector<std::string> workloads_;
    std::vector<std::string> configs_;
    std::vector<std::string> evaluators_;
    std::vector<Evaluation> cells_;
};

/** Builder/executor for evaluation grids (see file comment). */
class Study
{
  public:
    Study();

    // --- Workload axis. Axis entries are keyed by name in StudyResult
    // lookups, so every add* overload (and addConfig/addEvaluator below)
    // throws std::invalid_argument on a duplicate name instead of
    // silently shadowing the earlier entry.
    Study &add(WorkloadSource source);
    Study &addWorkload(const WorkloadSpec &spec);
    Study &addWorkload(const SuiteEntry &entry);
    Study &addWorkload(ColumnarTrace trace);
    Study &addWorkload(WorkloadProfile profile);
    Study &addSuite(const std::vector<SuiteEntry> &entries);

    // --- Configuration axis.
    Study &addConfig(MulticoreConfig cfg);
    Study &addConfigs(const std::vector<MulticoreConfig> &cfgs);

    // --- Evaluator axis.
    Study &addEvaluator(const std::string &registeredName);
    Study &addEvaluator(std::unique_ptr<Evaluator> evaluator);

    // --- Knobs.
    /** Worker pool size; 1 = serial (default), 0 = all hardware threads. */
    Study &jobs(unsigned n);
    /** Enable the serialized profile tier rooted at @p dir. */
    Study &profileDirectory(std::string dir);
    Study &profilerOptions(const ProfilerOptions &opts);
    Study &rppmOptions(const RppmOptions &opts);
    Study &simOptions(const SimOptions &opts);

    // --- Introspection.
    const std::vector<WorkloadSource> &sources() const { return sources_; }
    const StudyOptions &options() const { return options_; }
    ProfileCache &profiles() { return cache_; }

    /** Cache-efficiency counters of the last run() (empty before the
     *  first run or when no evaluator used the component memo). */
    const std::optional<MemoStats> &lastMemoStats() const
    {
        return lastMemoStats_;
    }

    /** One workload's profile under the study's profiler options,
     *  through the cache (profiling it now if needed). */
    std::shared_ptr<const WorkloadProfile>
    profile(const std::string &workload);

    /**
     * Evaluate the full grid. Requires at least one workload, one config
     * and one evaluator; throws std::invalid_argument otherwise, or when
     * a trace-consuming evaluator meets a profile-only workload.
     * Evaluation errors propagate (first one wins).
     */
    StudyResult run();

  private:
    const WorkloadSource &sourceByName(const std::string &name) const;

    std::vector<WorkloadSource> sources_;
    std::vector<MulticoreConfig> configs_;
    std::vector<std::unique_ptr<Evaluator>> evaluators_;
    StudyOptions options_;
    ProfileCache cache_;
    unsigned jobs_ = 1;
    std::optional<MemoStats> lastMemoStats_;
};

} // namespace rppm

#endif // RPPM_STUDY_STUDY_HH
