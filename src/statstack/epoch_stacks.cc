#include "statstack/epoch_stacks.hh"

#include "common/assert.hh"

namespace rppm {

EpochStacks::EpochStacks(const EpochProfile &epoch, bool llc_uses_global_rd)
    : epoch_(epoch), llcGlobal_(llc_uses_global_rd),
      hasInstr_(epoch.numOps > 0 && epoch.instrRd.total() > 0),
      branchEntropy_(epoch.branches.averageLinearEntropy()),
      local_(epoch.localRd),
      global_(llc_uses_global_rd ? epoch.globalRd : epoch.localRd),
      loadLocal_(epoch.loadLocalRd),
      loadGlobal_(llc_uses_global_rd ? epoch.loadGlobalRd
                                     : epoch.loadLocalRd),
      instr_(hasInstr_ ? StatStack(epoch.instrRd) : StatStack())
{
}

const StatStack &
EpochStacks::stack(Which w) const
{
    switch (w) {
    case Which::Local: return local_;
    case Which::Global: return global_;
    case Which::LoadLocal: return loadLocal_;
    case Which::LoadGlobal: return loadGlobal_;
    case Which::Instr: break;
    }
    RPPM_ASSERT(hasInstr_);
    return instr_;
}

double
EpochStacks::missRate(Which w, uint64_t cache_lines) const
{
    const std::pair<uint8_t, uint64_t> key(static_cast<uint8_t>(w),
                                           cache_lines);
    MutexLock lock(curveMutex_);
    const auto it = curve_.find(key);
    if (it != curve_.end()) {
        curveHits_.fetch_add(1, std::memory_order_relaxed);
        return it->second;
    }
    const double rate = stack(w).missRate(cache_lines);
    curve_.emplace(key, rate);
    curvePoints_.fetch_add(1, std::memory_order_relaxed);
    return rate;
}

const std::vector<EpochStacks::OpSd> &
EpochStacks::microSd() const
{
    std::call_once(microOnce_, [this] {
        // The latency model queries stack distances only for loads
        // (stores take the FU latency, non-memory ops never reach it),
        // with the LLC decision driven by the interleaved distance when
        // interference modeling is on — mirror both choices exactly.
        size_t loads = 0;
        for (const MicroTrace &mt : epoch_.microTraces) {
            for (const MicroTraceOp &op : mt.ops)
                loads += op.op == OpClass::Load;
        }
        microSd_.reserve(loads);
        for (const MicroTrace &mt : epoch_.microTraces) {
            for (const MicroTraceOp &op : mt.ops) {
                if (op.op != OpClass::Load)
                    continue;
                microSd_.push_back(
                    {local_.stackDistance(op.localRd),
                     global_.stackDistance(llcGlobal_ ? op.globalRd
                                                      : op.localRd)});
            }
        }
        microSdBytes_.store(microSd_.capacity() * sizeof(OpSd),
                            std::memory_order_release);
    });
    return microSd_;
}

uint64_t
EpochStacks::approxResidentBytes() const
{
    constexpr uint64_t kCurveNodeBytes = 4 * sizeof(void *) +
        sizeof(std::pair<const std::pair<uint8_t, uint64_t>, double>);
    uint64_t bytes = sizeof(EpochStacks) + curvePoints() * kCurveNodeBytes +
        microSdBytes_.load(std::memory_order_acquire);
    for (const StatStack *s : {&local_, &global_, &loadLocal_, &loadGlobal_,
                               &instr_})
        bytes += s->heapBytes();
    return bytes;
}

} // namespace rppm
