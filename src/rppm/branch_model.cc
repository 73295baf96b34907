#include "rppm/branch_model.hh"

#include <algorithm>

namespace rppm {

BranchModelCache &
BranchModelCache::instance()
{
    static BranchModelCache cache;
    return cache;
}

const EntropyMissRateModel &
BranchModelCache::get(const BranchPredictorConfig &cfg)
{
    const auto key = std::make_pair(cfg.totalBytes, cfg.historyBits);
    // std::map iterators are insert-stable, so the reference returned
    // here survives later insertions; the lock only guards the lookup
    // and the (idempotent) first-use calibration.
    MutexLock lock(mutex_);
    auto it = models_.find(key);
    if (it == models_.end()) {
        it = models_.emplace(
            key, std::make_unique<EntropyMissRateModel>(cfg)).first;
    }
    return *it->second;
}

double
epochBranchMissRate(const EpochStacks &stacks,
                    const EntropyMissRateModel &model)
{
    if (stacks.epoch().numBranches == 0)
        return 0.0;
    return model.missRate(stacks.branchEntropy());
}

BranchComponent
branchComponent(const EpochStacks &stacks, const EntropyMissRateModel &model,
                double penalty_per_mispredict)
{
    BranchComponent result;
    const uint64_t branches = stacks.epoch().numBranches;
    if (branches == 0)
        return result;

    const double miss_rate = epochBranchMissRate(stacks, model);
    result.mispredicts = miss_rate * static_cast<double>(branches);

    // Eq. 1's mbpred x (cres + cfr), with (cres + cfr) evaluated as the
    // replay-measured effective redirect cost: resolution + refill minus
    // the back-end slack that would have stalled dispatch anyway.
    result.cycles = result.mispredicts *
        std::max(penalty_per_mispredict, 1.0);
    return result;
}

} // namespace rppm
