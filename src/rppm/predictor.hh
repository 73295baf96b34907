/**
 * @file
 * Top-level RPPM prediction API.
 *
 * Combines phase 1 (per-epoch active execution times via Eq. 1) with
 * phase 2 (Algorithm-2 symbolic synchronization execution) to predict a
 * multi-threaded workload's execution time, per-thread CPI stacks and
 * bottlegraph on any MulticoreConfig — all from a single profile.
 */

#ifndef RPPM_RPPM_PREDICTOR_HH
#define RPPM_RPPM_PREDICTOR_HH

#include <string>
#include <vector>

#include "arch/config.hh"
#include "profile/epoch_profile.hh"
#include "rppm/sync_model.hh"
#include "rppm/thread_model.hh"
#include "sim/bottlegraph.hh"

namespace rppm {

/**
 * Full RPPM prediction for one configuration.
 *
 * totalCycles (and activity) are in reference cycles — core 0's clock
 * domain — so heterogeneous per-core frequencies share one time base;
 * per-thread phase-1 results are in each thread's mapped core's own
 * cycles (threadCoreIds records the mapping used).
 */
struct RppmPrediction
{
    std::string workload;
    std::string config;
    double totalCycles = 0.0;
    double totalSeconds = 0.0;
    std::vector<ThreadPrediction> threads; ///< phase-1 results
    std::vector<double> threadIdle;        ///< phase-2 sync idle/thread
    std::vector<std::vector<ActivityInterval>> activity;
    std::vector<uint32_t> threadCoreIds;   ///< core each thread ran on
    std::vector<double> threadSeconds;     ///< per-thread finish time (s)

    /**
     * Average per-thread CPI stack, normalized per instruction, with the
     * Sync component included — directly comparable to
     * SimResult::averageCpiStack() (paper Fig. 5).
     */
    CpiStack averageCpiStack() const;

    /** Predicted bottlegraph (paper Fig. 6). */
    Bottlegraph bottlegraph() const;
};

/** RPPM model tunables. */
struct RppmOptions
{
    SyncModelOptions sync;
    Eq1Options eq1;   ///< per-epoch model; defaults to the full model
};

/** Phase-2 assembly, shared by predict() and PredictionMemo::predict():
 *  copy @p sync's total, idle times and activity into @p pred and
 *  convert the total and per-thread finish times to seconds on @p cfg. */
void applySyncResult(RppmPrediction &pred, const MulticoreConfig &cfg,
                     const SyncModelResult &sync);

/** Predict @p profile's execution on @p cfg. */
RppmPrediction predict(const WorkloadProfile &profile,
                       const MulticoreConfig &cfg,
                       const RppmOptions &opts = {});

} // namespace rppm

#endif // RPPM_RPPM_PREDICTOR_HH
