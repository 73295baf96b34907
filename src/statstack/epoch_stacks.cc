#include "statstack/epoch_stacks.hh"

#include "common/assert.hh"

namespace rppm {

EpochStacks::EpochStacks(const EpochProfile &epoch, bool llc_uses_global_rd)
    : epoch_(epoch), llcGlobal_(llc_uses_global_rd),
      hasInstr_(epoch.numOps > 0 && epoch.instrRd.total() > 0),
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

const std::vector<std::vector<EpochStacks::OpSd>> &
EpochStacks::microSd() const
{
    std::call_once(microOnce_, [this] {
        // The latency model queries stack distances only for loads
        // (stores take the FU latency, non-memory ops never reach it),
        // with the LLC decision driven by the interleaved distance when
        // interference modeling is on — mirror both choices exactly.
        microSd_.resize(epoch_.microTraces.size());
        for (size_t t = 0; t < epoch_.microTraces.size(); ++t) {
            const MicroTrace &mt = epoch_.microTraces[t];
            microSd_[t].resize(mt.ops.size());
            for (size_t i = 0; i < mt.ops.size(); ++i) {
                const MicroTraceOp &op = mt.ops[i];
                if (op.op != OpClass::Load)
                    continue;
                microSd_[t][i].local = local_.stackDistance(op.localRd);
                microSd_[t][i].llc = global_.stackDistance(
                    llcGlobal_ ? op.globalRd : op.localRd);
            }
        }
    });
    return microSd_;
}

} // namespace rppm
