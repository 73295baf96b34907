#include "rppm/predictor.hh"

namespace rppm {

CpiStack
RppmPrediction::averageCpiStack() const
{
    CpiStack avg;
    uint32_t counted = 0;
    for (size_t t = 0; t < threads.size(); ++t) {
        if (threads[t].instructions == 0)
            continue;
        CpiStack stack = threads[t].stack;
        stack[CpiComponent::Sync] += threadIdle[t];
        stack.scale(1.0 / static_cast<double>(threads[t].instructions));
        avg.add(stack);
        ++counted;
    }
    if (counted > 0)
        avg.scale(1.0 / static_cast<double>(counted));
    return avg;
}

Bottlegraph
RppmPrediction::bottlegraph() const
{
    return buildBottlegraph(activity, totalCycles);
}

void
applySyncResult(RppmPrediction &pred, const MulticoreConfig &cfg,
                const SyncModelResult &sync)
{
    pred.totalCycles = sync.totalCycles;
    pred.totalSeconds = cfg.refCyclesToSeconds(sync.totalCycles);
    pred.threadIdle = sync.threadIdle;
    pred.activity = sync.activity;
    pred.threadSeconds.reserve(sync.threadFinish.size());
    for (double finish : sync.threadFinish)
        pred.threadSeconds.push_back(cfg.refCyclesToSeconds(finish));
}

RppmPrediction
predict(const WorkloadProfile &profile, const MulticoreConfig &cfg,
        const RppmOptions &opts)
{
    cfg.validate();
    RppmPrediction pred;
    pred.workload = profile.name;
    pred.config = cfg.name;

    // Phase 1: per-epoch active execution times for every thread,
    // evaluated against the core the thread is mapped to.
    pred.threads.reserve(profile.numThreads);
    pred.threadCoreIds.reserve(profile.numThreads);
    for (uint32_t t = 0; t < profile.numThreads; ++t) {
        pred.threadCoreIds.push_back(cfg.coreOf(t));
        pred.threads.push_back(predictThread(profile.threads[t], cfg,
                                             cfg.threadCore(t), opts.eq1));
    }

    // Phase 2: symbolic execution of the synchronization trace on the
    // common reference time base.
    applySyncResult(pred, cfg,
                    runSyncModel(profile, pred.threads, cfg, opts.sync));
    return pred;
}

} // namespace rppm
