/**
 * @file
 * Config-independent StatStack bundle of one epoch — the "profile once"
 * half of the memoized prediction engine.
 *
 * Every quantity StatStack derives from an epoch's reuse-distance
 * histograms is a pure function of the profile: the survival prefix sums
 * (StatStack construction), the expected stack distance of each sampled
 * micro-trace load, and — for a given cache size — the miss rate. None
 * of it depends on a MulticoreConfig. The naive per-point predictor
 * nevertheless rebuilt all of it for every design point of a grid.
 *
 * EpochStacks hoists this work out of the per-point path:
 *
 *  - the four data stacks (per-thread / interleaved, all-accesses /
 *    loads-only) and the instruction stack are built exactly once per
 *    (epoch, llcUsesGlobalRd flavour). Each StatStack keeps one slot
 *    per non-empty bucket of its histogram, so a bundle is
 *    sizeof(EpochStacks) plus a few hundred bytes of slots and its memo
 *    tables, and it does not copy the epoch's histograms;
 *  - the expected stack distances of the micro-trace loads are
 *    precomputed lazily on first replay, one entry per sampled load, so
 *    the lockstep five-lane Eq.-1 window replay reads two doubles per
 *    load instead of re-walking the survival sums;
 *  - missRate() is memoized per (stack, line count): a grid axis with
 *    ten cache sizes evaluates each CDF ten times total, not once per
 *    grid point;
 *  - the epoch's average linear branch entropy, a walk of its branch
 *    table, is taken once per bundle rather than once per evaluation.
 *
 * All cached values are produced by calling the same StatStack methods
 * the naive path calls, on stacks built from the same histograms, so
 * predictions through EpochStacks are bit-identical to the per-point
 * path. Instances are immutable after construction apart from the
 * internal memo tables, which are thread-safe: one EpochStacks may be
 * shared by every worker of a Study grid.
 */

#ifndef RPPM_STATSTACK_EPOCH_STACKS_HH
#define RPPM_STATSTACK_EPOCH_STACKS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "common/thread_annotations.hh"
#include "profile/epoch_profile.hh"
#include "statstack/statstack.hh"

namespace rppm {

class EpochStacks
{
  public:
    /** The reuse-distance flavours the memory model queries. */
    enum class Which : uint8_t
    {
        Local,      ///< per-thread, all accesses (private L1D/L2)
        Global,     ///< interleaved, all accesses (shared LLC)
        LoadLocal,  ///< per-thread, loads only
        LoadGlobal, ///< interleaved, loads only
        Instr,      ///< instruction stream (I-cache, all levels)
    };

    /**
     * Build all stacks for @p epoch. With @p llc_uses_global_rd false
     * (the no-interference ablation) the Global/LoadGlobal slots hold
     * stacks over the per-thread distributions, mirroring what the
     * memory model would have built. The epoch must outlive the bundle.
     */
    EpochStacks(const EpochProfile &epoch, bool llc_uses_global_rd);

    const EpochProfile &epoch() const { return epoch_; }
    bool llcUsesGlobalRd() const { return llcGlobal_; }

    /** True when the epoch carries instruction-stream samples (the
     *  condition under which the memory model prices I-cache stalls). */
    bool hasInstr() const { return hasInstr_; }

    const StatStack &stack(Which w) const;

    /** The epoch's average linear branch entropy (the branch model's
     *  config-independent input), computed at construction. */
    double branchEntropy() const { return branchEntropy_; }

    /**
     * Memoized StatStack::missRate: the survival CDF of @p w is
     * evaluated once per distinct @p cache_lines and served from the
     * curve table afterwards. Thread-safe; bit-identical to calling the
     * stack directly.
     */
    double missRate(Which w, uint64_t cache_lines) const
        RPPM_EXCLUDES(curveMutex_);

    /** Expected stack distances of one sampled micro-trace load. */
    struct OpSd
    {
        double local = 0.0; ///< vs the per-thread distribution
        double llc = 0.0;   ///< vs the LLC-deciding distribution
    };

    /**
     * Expected stack distances of the micro-trace loads, one entry per
     * load in epoch().microTraces order (trace by trace, op by op); the
     * replay walks it by load ordinal. Stores and non-memory ops have no
     * entry: the latency model never prices them from stack distances.
     * Built on first call; subsequent calls are a fenced pointer read.
     * Thread-safe.
     */
    const std::vector<OpSd> &microSd() const;

    /** Distinct (stack, line count) CDF evaluations performed. */
    uint64_t curvePoints() const { return curvePoints_.load(); }
    /** missRate() calls served from the curve table. */
    uint64_t curveHits() const { return curveHits_.load(); }

    /**
     * Approximate heap footprint: the bundle, its stacks' slots, one
     * map node per memoized curve point and, once built, microSd().
     * Thread-safe.
     */
    uint64_t approxResidentBytes() const;

  private:
    const EpochProfile &epoch_;
    bool llcGlobal_;
    bool hasInstr_;
    double branchEntropy_;
    StatStack local_, global_, loadLocal_, loadGlobal_, instr_;

    mutable std::once_flag microOnce_;
    mutable std::vector<OpSd> microSd_;
    /** microSd_'s allocated bytes, published once it is built. */
    mutable std::atomic<uint64_t> microSdBytes_{0};

    mutable Mutex curveMutex_;
    mutable std::map<std::pair<uint8_t, uint64_t>, double> curve_
        RPPM_GUARDED_BY(curveMutex_);
    mutable std::atomic<uint64_t> curvePoints_{0};
    mutable std::atomic<uint64_t> curveHits_{0};
};

} // namespace rppm

#endif // RPPM_STATSTACK_EPOCH_STACKS_HH
