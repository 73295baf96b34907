#include "study/evaluator.hh"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "common/thread_annotations.hh"
#include "rppm/baselines.hh"
#include "rppm/memo.hh"

namespace rppm {

namespace {

double
cyclesToSeconds(double cycles, const MulticoreConfig &cfg)
{
    return cfg.refCyclesToSeconds(cycles);
}

} // namespace

Evaluation
Evaluator::makeResult(const EvalContext &ctx,
                      const MulticoreConfig &cfg) const
{
    Evaluation result;
    result.workload = ctx.workload.name();
    result.config = cfg.name;
    result.evaluator = label_;
    return result;
}

Evaluation
RppmEvaluator::evaluate(const EvalContext &ctx,
                        const MulticoreConfig &cfg) const
{
    Evaluation result = makeResult(ctx, cfg);
    const auto profile = ctx.profile(profiler_);
    const RppmOptions &opts = rppm_ ? *rppm_ : ctx.options.rppm;
    // Share component evaluations with every other design point of this
    // profile (bit-identical to rppm::predict per point).
    result.prediction = ctx.memos.forProfile(profile)->predict(cfg, opts);
    result.cycles = result.prediction->totalCycles;
    result.seconds = result.prediction->totalSeconds;
    result.threadSeconds = result.prediction->threadSeconds;
    return result;
}

Evaluation
SimEvaluator::evaluate(const EvalContext &ctx,
                       const MulticoreConfig &cfg) const
{
    Evaluation result = makeResult(ctx, cfg);
    // The source's cached trace feeds the simulator's engines directly
    // (SimOptions::jobs selects the parallel one).
    result.sim = simulate(ctx.workload.columnar(), cfg, ctx.options.sim);
    result.cycles = result.sim->totalCycles;
    result.seconds = result.sim->totalSeconds;
    result.threadSeconds.reserve(result.sim->threads.size());
    for (const ThreadResult &t : result.sim->threads)
        result.threadSeconds.push_back(t.finishSeconds);
    return result;
}

Evaluation
MainEvaluator::evaluate(const EvalContext &ctx,
                        const MulticoreConfig &cfg) const
{
    Evaluation result = makeResult(ctx, cfg);
    result.cycles = predictMain(*ctx.profile(), cfg);
    result.seconds = cyclesToSeconds(result.cycles, cfg);
    return result;
}

Evaluation
CritEvaluator::evaluate(const EvalContext &ctx,
                        const MulticoreConfig &cfg) const
{
    Evaluation result = makeResult(ctx, cfg);
    result.cycles = predictCrit(*ctx.profile(), cfg);
    result.seconds = cyclesToSeconds(result.cycles, cfg);
    return result;
}

// ----------------------------------------------------------- registry ---

namespace {

std::unordered_map<std::string, EvaluatorFactory>
builtinFactories()
{
    std::unordered_map<std::string, EvaluatorFactory> factories;
    factories["rppm"] = [] { return std::make_unique<RppmEvaluator>(); };
    factories["sim"] = [] { return std::make_unique<SimEvaluator>(); };
    factories["main"] = [] { return std::make_unique<MainEvaluator>(); };
    factories["crit"] = [] { return std::make_unique<CritEvaluator>(); };
    return factories;
}

struct Registry
{
    Mutex mutex;
    std::unordered_map<std::string, EvaluatorFactory> factories
        RPPM_GUARDED_BY(mutex) = builtinFactories();
};

Registry &
registry()
{
    static Registry r;
    return r;
}

} // namespace

void
registerEvaluator(const std::string &name, EvaluatorFactory factory)
{
    Registry &r = registry();
    MutexLock lock(r.mutex);
    r.factories[name] = std::move(factory);
}

std::unique_ptr<Evaluator>
makeEvaluator(const std::string &name)
{
    Registry &r = registry();
    EvaluatorFactory factory;
    {
        MutexLock lock(r.mutex);
        auto it = r.factories.find(name);
        if (it == r.factories.end()) {
            throw std::invalid_argument(
                "unknown evaluator backend '" + name + "'");
        }
        factory = it->second;
    }
    return factory();
}

std::vector<std::string>
registeredEvaluators()
{
    Registry &r = registry();
    std::vector<std::string> names;
    {
        MutexLock lock(r.mutex);
        names.reserve(r.factories.size());
        for (const auto &[name, factory] : r.factories)
            names.push_back(name);
    }
    std::sort(names.begin(), names.end());
    return names;
}

} // namespace rppm
