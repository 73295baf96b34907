/**
 * @file
 * Design-space exploration driver (paper Sec. VI-A, Table V).
 *
 * Given one profile and a set of candidate configurations, RPPM predicts
 * the execution time of each candidate and selects every design point
 * whose predicted time is within a bound of the predicted optimum. The
 * harness then scores the selection against exhaustive simulation: the
 * deficiency is how much slower the best *selected* point is than the
 * true (simulated) optimum.
 */

#ifndef RPPM_RPPM_DSE_HH
#define RPPM_RPPM_DSE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "arch/config.hh"
#include "study/evaluator.hh"
#include "study/source.hh"

namespace rppm {

/** Outcome of exploring one workload over a design space. */
struct DseResult
{
    std::string workload;
    std::vector<double> predictedSeconds; ///< per design point
    std::vector<double> simulatedSeconds; ///< per design point (oracle)

    /** Index of the predicted-optimal design point. */
    size_t predictedBest() const;

    /** Index of the simulated (true) optimal design point. */
    size_t trueBest() const;

    /** Design points within @p bound of the predicted optimum. */
    std::vector<size_t> candidates(double bound) const;

    /**
     * Deficiency at @p bound: simulated time of the best candidate
     * (by simulation) relative to the true optimum, minus one. Zero when
     * the candidate set contains the true optimum.
     */
    double deficiency(double bound) const;
};

/** Knobs of the evaluator-backed exploration. */
struct DseOptions
{
    /** Registered backend predicting each design point ("rppm", or an
     *  ablation variant registered via registerEvaluator). */
    std::string model = "rppm";

    /** Registered golden-reference backend scoring the selection. Must
     *  report isOracle(). */
    std::string oracle = "sim";

    /** Model/profiler/simulator tunables shared by both backends. */
    StudyOptions study;

    /** Worker-pool size for grid evaluation (0 = all hardware threads). */
    unsigned jobs = 1;
};

/**
 * Explore @p configs for @p workload: the model backend predicts every
 * design point and the oracle backend supplies the golden-reference
 * times, both through the Evaluator interface (no caller-supplied
 * timing vectors). The workload is profiled at most once. Design
 * points are a Study grid axis, so every config needs a distinct name.
 *
 * Any MulticoreConfig is a design point — including heterogeneous
 * machines and thread placements: feed mappingSweep() or
 * heterogeneousConfigs() output here to pick the best thread-to-core
 * mapping or DVFS scenario from one profile (see
 * examples/heterogeneous_mapping.cpp).
 */
DseResult exploreDesignSpace(const WorkloadSource &workload,
                             const std::vector<MulticoreConfig> &configs,
                             const DseOptions &opts = {});

} // namespace rppm

#endif // RPPM_RPPM_DSE_HH
