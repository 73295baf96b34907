/**
 * @file
 * Pluggable evaluator backends for the Study facade.
 *
 * An Evaluator answers one question — "how long does workload W take on
 * configuration C?" — by whatever means it implements:
 *
 *   - RppmEvaluator  the paper's analytical model (rppm::predict)
 *   - SimEvaluator   the golden-reference cycle-level simulator (oracle)
 *   - MainEvaluator  the MAIN naive baseline (main thread only)
 *   - CritEvaluator  the CRIT naive baseline (slowest thread)
 *
 * All backends consume the same EvalContext, which hands out the
 * workload's trace and (cached) profile on demand; that is what lets the
 * design-space-exploration driver request oracle times through the same
 * interface as model predictions, and what lets a Study mix backends in
 * one grid. Custom backends register by name via registerEvaluator() or
 * are handed to Study::addEvaluator directly.
 *
 * Evaluators must be stateless with respect to evaluate() calls: one
 * instance is invoked concurrently from all worker threads.
 */

#ifndef RPPM_STUDY_EVALUATOR_HH
#define RPPM_STUDY_EVALUATOR_HH

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arch/config.hh"
#include "profile/profiler.hh"
#include "rppm/predictor.hh"
#include "sim/simulator.hh"
#include "study/profile_cache.hh"
#include "study/source.hh"

namespace rppm {

class PredictionMemoPool;

/** Knobs shared by every evaluation in a study. */
struct StudyOptions
{
    ProfilerOptions profiler;
    RppmOptions rppm;
    SimOptions sim;
};

/** Everything an evaluator may ask for about one workload. */
struct EvalContext
{
    const WorkloadSource &workload;
    const StudyOptions &options;
    ProfileCache &profiles;

    /** Shared memoized prediction engines for the running grid. */
    PredictionMemoPool &memos;

    /** The workload's profile under the study's (or @p override's)
     *  profiler options, through the cache. */
    std::shared_ptr<const WorkloadProfile>
    profile(const std::optional<ProfilerOptions> &override = {}) const
    {
        return workload.profile(override ? *override : options.profiler,
                                profiles);
    }
};

/** One cell of a study grid: an evaluator's verdict on (W, C). */
struct Evaluation
{
    std::string workload;
    std::string config;
    std::string evaluator;
    double cycles = 0.0;    ///< reference cycles (core 0's clock)
    double seconds = 0.0;

    /** Per-thread finish time in seconds on the thread's mapped core
     *  (heterogeneity-aware backends: rppm, sim; empty otherwise). */
    std::vector<double> threadSeconds;

    /** Backend detail, populated by the evaluators that produce it. */
    std::optional<RppmPrediction> prediction; ///< RppmEvaluator
    std::optional<SimResult> sim;             ///< SimEvaluator
};

/** Abstract evaluation backend. */
class Evaluator
{
  public:
    explicit Evaluator(std::string label) : label_(std::move(label)) {}
    virtual ~Evaluator() = default;

    /** Grid axis label ("rppm", "sim", ...). Unique within a study. */
    const std::string &label() const { return label_; }

    /** True for golden-reference backends usable as DSE oracles. */
    virtual bool isOracle() const { return false; }

    /** True when the backend replays the trace (profile-only workload
     *  sources cannot serve it). */
    virtual bool needsTrace() const { return false; }

    /** True when the backend exploits a shared PredictionMemoPool; the
     *  Study sorts and shards such a backend's design points by
     *  component key so cache neighbours run back to back. */
    virtual bool usesComponentMemo() const { return false; }

    /** Evaluate @p ctx's workload on @p cfg. Must be thread-safe. */
    virtual Evaluation evaluate(const EvalContext &ctx,
                                const MulticoreConfig &cfg) const = 0;

  protected:
    /** Start a result cell with the axis labels filled in. */
    Evaluation makeResult(const EvalContext &ctx,
                          const MulticoreConfig &cfg) const;

    std::string label_;
};

/** Analytical-model backend; options can override the study's. */
class RppmEvaluator : public Evaluator
{
  public:
    RppmEvaluator() : Evaluator("rppm") {}

    /** Variant backend (ablation etc.): custom label, optional RPPM and
     *  profiler option overrides. */
    explicit RppmEvaluator(std::string label,
                           std::optional<RppmOptions> rppm = {},
                           std::optional<ProfilerOptions> profiler = {})
        : Evaluator(std::move(label)), rppm_(std::move(rppm)),
          profiler_(std::move(profiler))
    {}

    bool usesComponentMemo() const override { return true; }

    Evaluation evaluate(const EvalContext &ctx,
                        const MulticoreConfig &cfg) const override;

  private:
    std::optional<RppmOptions> rppm_;
    std::optional<ProfilerOptions> profiler_;
};

/** Golden-reference simulator backend (the oracle). */
class SimEvaluator : public Evaluator
{
  public:
    SimEvaluator() : Evaluator("sim") {}

    bool isOracle() const override { return true; }
    bool needsTrace() const override { return true; }

    Evaluation evaluate(const EvalContext &ctx,
                        const MulticoreConfig &cfg) const override;
};

/** MAIN naive baseline (paper Sec. II-C). */
class MainEvaluator : public Evaluator
{
  public:
    explicit MainEvaluator(std::string label = "main")
        : Evaluator(std::move(label))
    {}

    Evaluation evaluate(const EvalContext &ctx,
                        const MulticoreConfig &cfg) const override;
};

/** CRIT naive baseline (paper Sec. II-C). */
class CritEvaluator : public Evaluator
{
  public:
    explicit CritEvaluator(std::string label = "crit")
        : Evaluator(std::move(label))
    {}

    Evaluation evaluate(const EvalContext &ctx,
                        const MulticoreConfig &cfg) const override;
};

// ----------------------------------------------------------- registry ---

using EvaluatorFactory = std::function<std::unique_ptr<Evaluator>()>;

/**
 * Register @p factory under @p name (replacing any previous entry).
 * "rppm", "sim", "main" and "crit" are pre-registered.
 */
void registerEvaluator(const std::string &name, EvaluatorFactory factory);

/** Instantiate a registered backend; throws std::invalid_argument on an
 *  unknown name. */
std::unique_ptr<Evaluator> makeEvaluator(const std::string &name);

/** Registered backend names, sorted. */
std::vector<std::string> registeredEvaluators();

} // namespace rppm

#endif // RPPM_STUDY_EVALUATOR_HH
