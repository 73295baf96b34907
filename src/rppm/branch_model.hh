/**
 * @file
 * Branch component of Eq. 1: mbpred x (cres + cfr).
 *
 * The misprediction count mbpred comes from the workload's linear branch
 * entropy (microarchitecture-independent) mapped through the calibrated
 * per-predictor EntropyMissRateModel. The resolution time cres is the
 * average dispatch-to-execute delay of branches, obtained from the ILP
 * replay; the refill time cfr is the front-end depth.
 */

#ifndef RPPM_RPPM_BRANCH_MODEL_HH
#define RPPM_RPPM_BRANCH_MODEL_HH

#include <map>
#include <memory>

#include "arch/config.hh"
#include "common/thread_annotations.hh"
#include "branch/entropy.hh"
#include "profile/epoch_profile.hh"
#include "statstack/epoch_stacks.hh"

namespace rppm {

/**
 * Caches EntropyMissRateModel calibrations per predictor configuration so
 * design-space sweeps pay the calibration cost once per predictor.
 * Thread-safe: grid workers share the process-wide instance. Returned
 * references stay valid for the cache's lifetime (entries are never
 * evicted).
 */
class BranchModelCache
{
  public:
    /** The calibrated map for @p cfg (built on first use). */
    const EntropyMissRateModel &get(const BranchPredictorConfig &cfg)
        RPPM_EXCLUDES(mutex_);

    /** Process-wide instance. */
    static BranchModelCache &instance();

  private:
    Mutex mutex_;
    std::map<std::pair<uint32_t, uint32_t>,
             std::unique_ptr<EntropyMissRateModel>> models_
        RPPM_GUARDED_BY(mutex_);
};

/** Predicted branch-component cycles for one epoch. */
struct BranchComponent
{
    double mispredicts = 0.0;
    double cycles = 0.0;
};

/**
 * Entropy-predicted misprediction probability of the epoch of @p stacks
 * through @p model, the calibrated map of the core's predictor
 * (BranchModelCache::get). The entropy is the one the bundle took at
 * construction; callers resolve the model once per thread.
 */
double epochBranchMissRate(const EpochStacks &stacks,
                           const EntropyMissRateModel &model);

/**
 * Evaluate the branch component of the epoch of @p stacks through the
 * calibrated map @p model.
 *
 * @param penalty_per_mispredict effective front-end redirect cost of one
 *        misprediction (resolution + refill beyond back-end slack), from
 *        the epoch's ILP replay
 */
BranchComponent branchComponent(const EpochStacks &stacks,
                                const EntropyMissRateModel &model,
                                double penalty_per_mispredict);

} // namespace rppm

#endif // RPPM_RPPM_BRANCH_MODEL_HH
