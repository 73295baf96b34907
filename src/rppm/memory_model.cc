#include "rppm/memory_model.hh"

#include <algorithm>

#include "common/assert.hh"

namespace rppm {

EpochMemoryModel::EpochMemoryModel(const EpochProfile &epoch,
                                   const MulticoreConfig &cfg,
                                   const CoreConfig &core,
                                   bool llc_uses_global_rd)
    : EpochMemoryModel(epoch, cfg, core,
                       std::make_shared<const EpochStacks>(
                           epoch, llc_uses_global_rd))
{
}

EpochMemoryModel::EpochMemoryModel(const EpochProfile &epoch,
                                   const MulticoreConfig &cfg,
                                   const CoreConfig &core,
                                   std::shared_ptr<const EpochStacks> stacks)
    : epoch_(epoch), cfg_(cfg), core_(core), stacks_(std::move(stacks)),
      l1Lines_(core.l1d.numLines()),
      l2Lines_(core.l2.numLines()),
      llcLines_(cfg.llc.numLines())
{
    RPPM_REQUIRE(stacks_ != nullptr, "null EpochStacks bundle");
    RPPM_ASSERT(&stacks_->epoch() == &epoch_);

    // Private levels from the per-thread distribution; shared LLC from
    // the global interleaved distribution.
    using W = EpochStacks::Which;
    l1dMiss_ = stacks_->missRate(W::Local, l1Lines_);
    l2Miss_ = stacks_->missRate(W::Local, l2Lines_);
    llcMiss_ = stacks_->missRate(W::Global, llcLines_);

    // A load only reaches the LLC when it missed the private levels, so
    // mLLC is bounded by the private L2 load miss rate.
    const double load_l2_miss = stacks_->missRate(W::LoadLocal, l2Lines_);
    const double load_llc_miss = stacks_->missRate(W::LoadGlobal, llcLines_);
    llcLoadMissRate_ = std::min(load_l2_miss, load_llc_miss);
    llcLoadMisses_ =
        llcLoadMissRate_ * static_cast<double>(epoch.numLoads);

    // I-cache component: sum over levels of miss rate x next-level
    // latency (Eq. 1). The I-stream is private, so the per-thread
    // instruction reuse distances drive all levels.
    if (stacks_->hasInstr()) {
        const double l1i_miss =
            stacks_->missRate(W::Instr, core.l1i.numLines());
        const double l2i_miss = stacks_->missRate(W::Instr, l2Lines_);
        const double llci_miss = stacks_->missRate(W::Instr, llcLines_);
        const double per_fetch =
            l1i_miss * static_cast<double>(core.l2.latency) +
            l2i_miss * static_cast<double>(cfg.llc.latency) +
            llci_miss * static_cast<double>(core.memLatency);
        icacheCycles_ = per_fetch * static_cast<double>(epoch.numOps);
    }
}

uint64_t
EpochMemoryModel::llcRd(const MicroTraceOp &op) const
{
    return stacks_->llcUsesGlobalRd() ? op.globalRd : op.localRd;
}

EpochStacks::OpSd
EpochMemoryModel::opSd(const MicroTraceOp &op) const
{
    EpochStacks::OpSd sd;
    sd.local = stacks_->stack(EpochStacks::Which::Local)
                   .stackDistance(op.localRd);
    sd.llc = stacks_->stack(EpochStacks::Which::Global)
                 .stackDistance(llcRd(op));
    return sd;
}

double
EpochMemoryModel::expectedLatency(const MicroTraceOp &op) const
{
    if (op.op == OpClass::Store)
        return storeLatency();
    return loadPrices(opSd(op)).hit;
}

double
EpochMemoryModel::expectedLatencyFull(const MicroTraceOp &op) const
{
    if (op.op != OpClass::Load)
        return expectedLatency(op);
    return loadPrices(opSd(op)).full;
}

} // namespace rppm
