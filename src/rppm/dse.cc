#include "rppm/dse.hh"

#include <algorithm>
#include <limits>

#include "common/assert.hh"
#include "study/study.hh"

namespace rppm {

size_t
DseResult::predictedBest() const
{
    RPPM_ASSERT(!predictedSeconds.empty());
    return static_cast<size_t>(
        std::min_element(predictedSeconds.begin(), predictedSeconds.end()) -
        predictedSeconds.begin());
}

size_t
DseResult::trueBest() const
{
    RPPM_ASSERT(!simulatedSeconds.empty());
    return static_cast<size_t>(
        std::min_element(simulatedSeconds.begin(), simulatedSeconds.end()) -
        simulatedSeconds.begin());
}

std::vector<size_t>
DseResult::candidates(double bound) const
{
    const double best = predictedSeconds[predictedBest()];
    std::vector<size_t> result;
    for (size_t i = 0; i < predictedSeconds.size(); ++i) {
        if (predictedSeconds[i] <= best * (1.0 + bound))
            result.push_back(i);
    }
    return result;
}

double
DseResult::deficiency(double bound) const
{
    // Among the predicted candidates, simulation identifies the best one;
    // the deficiency is its slowdown versus the true optimum.
    const std::vector<size_t> cands = candidates(bound);
    double best_cand = std::numeric_limits<double>::infinity();
    for (size_t idx : cands)
        best_cand = std::min(best_cand, simulatedSeconds[idx]);
    const double optimum = simulatedSeconds[trueBest()];
    if (optimum <= 0.0)
        return 0.0;
    return best_cand / optimum - 1.0;
}

DseResult
exploreDesignSpace(const WorkloadSource &workload,
                   const std::vector<MulticoreConfig> &configs,
                   const DseOptions &opts)
{
    RPPM_REQUIRE(!configs.empty(), "empty design space");

    std::unique_ptr<Evaluator> oracle = makeEvaluator(opts.oracle);
    RPPM_REQUIRE(oracle->isOracle(),
                 "DSE oracle backend must be a golden reference");

    // One grid: the model predicts every design point from a single
    // profile while the oracle supplies the reference times — both
    // through the same Evaluator interface, sharing the worker pool.
    Study study;
    study.add(workload)
        .addConfigs(configs)
        .addEvaluator(makeEvaluator(opts.model))
        .addEvaluator(std::move(oracle))
        .profilerOptions(opts.study.profiler)
        .rppmOptions(opts.study.rppm)
        .simOptions(opts.study.sim)
        .jobs(opts.jobs);
    const StudyResult grid = study.run();

    DseResult result;
    result.workload = workload.name();
    const std::string &model = grid.evaluators()[0];
    const std::string &oracleName = grid.evaluators()[1];
    for (const Evaluation *cell : grid.sweep(workload.name(), model))
        result.predictedSeconds.push_back(cell->seconds);
    for (const Evaluation *cell : grid.sweep(workload.name(), oracleName))
        result.simulatedSeconds.push_back(cell->seconds);
    return result;
}

} // namespace rppm
