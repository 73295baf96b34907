/**
 * @file
 * Statistical memory-hierarchy model (paper Sec. III-A "Memory Behavior"
 * and III-B "Per-epoch active execution time").
 *
 * Per epoch, StatStack instances built from the per-thread reuse-distance
 * distribution predict the private L1D and L2 miss rates, and the global
 * (interleaved) distribution predicts the shared-LLC miss rate — thereby
 * capturing positive interference (sharing), negative interference
 * (capacity contention) and coherence (write-invalidation) effects. The
 * instruction-stream distribution predicts the I-cache component.
 *
 * All StatStack-derived quantities are config-independent and live in an
 * EpochStacks bundle. The model either borrows a shared bundle (the
 * memoized grid engine builds one per epoch for a whole Study) or builds
 * its own (the naive per-point path); both produce bit-identical
 * predictions.
 *
 * The Eq.-1 window replays price each sampled load through loadPrices():
 * one lookup of the load's precomputed stack distances yields its L1-only,
 * hit-path and full (DRAM) latencies, which the lockstep replay lanes
 * share.
 */

#ifndef RPPM_RPPM_MEMORY_MODEL_HH
#define RPPM_RPPM_MEMORY_MODEL_HH

#include <memory>
#include <vector>

#include "arch/config.hh"
#include "profile/epoch_profile.hh"
#include "statstack/epoch_stacks.hh"
#include "statstack/statstack.hh"

namespace rppm {

/** Predicted cache behaviour of one epoch on one configuration. */
struct EpochMemoryModel
{
    /**
     * Build the statistical cache model for @p epoch running on core
     * @p core of @p cfg (private levels and DRAM latency come from the
     * core, the shared LLC from the multicore). Holds references to the
     * epoch's histograms and both configs; they must outlive the model.
     *
     * @param llc_uses_global_rd predict the shared LLC from the global
     *        interleaved reuse distances (full model); false falls back
     *        to the per-thread distances (ablation: no interference)
     */
    EpochMemoryModel(const EpochProfile &epoch, const MulticoreConfig &cfg,
                     const CoreConfig &core,
                     bool llc_uses_global_rd = true);

    /**
     * Same model over a pre-built (shared) stack bundle: no StatStack is
     * constructed and miss rates come from the bundle's memoized curves.
     * @p stacks must have been built from @p epoch (with the desired
     * llcUsesGlobalRd flavour) and must not be null.
     */
    EpochMemoryModel(const EpochProfile &epoch, const MulticoreConfig &cfg,
                     const CoreConfig &core,
                     std::shared_ptr<const EpochStacks> stacks);

    /** Convenience: model for core 0 (uniform machines). */
    EpochMemoryModel(const EpochProfile &epoch, const MulticoreConfig &cfg,
                     bool llc_uses_global_rd = true)
        : EpochMemoryModel(epoch, cfg, cfg.core(0), llc_uses_global_rd)
    {}

    /** Miss rates (per access) at each level. */
    double l1dMissRate() const { return l1dMiss_; }
    double l2MissRate() const { return l2Miss_; }   ///< of all accesses
    double llcMissRate() const { return llcMiss_; } ///< of all accesses

    /** Load-specific LLC miss count for the D-component (mLLC). */
    double llcLoadMisses() const { return llcLoadMisses_; }

    /** Load-specific LLC miss rate (per load). */
    double llcLoadMissRate() const { return llcLoadMissRate_; }

    /** Predicted DRAM transfers (loads + stores) in this epoch; drives
     *  the shared-bus contention model. */
    double dramTransfers() const
    {
        return llcMiss_ *
            static_cast<double>(epoch_.numLoads + epoch_.numStores);
    }

    /**
     * Expected latency of one memory micro-op given its profiled reuse
     * distances, capped at the LLC hit latency (the hit path only).
     */
    double expectedLatency(const MicroTraceOp &op) const;

    /**
     * Expected latency including the DRAM penalty for accesses whose
     * global reuse distance exceeds the LLC reach. Used by the
     * D-component replay, where the window model turns these per-access
     * latencies into overlapped (MLP-limited) stall time.
     */
    double expectedLatencyFull(const MicroTraceOp &op) const;

    /** Latencies of one micro-trace load under each LoadPricing of
     *  the Eq.-1 replays. */
    struct LoadPrices
    {
        double l1Only; ///< L1D hit
        double hit;    ///< expectedLatency: L2/LLC hit path
        double full;   ///< expectedLatencyFull: plus the DRAM penalty
    };

    /**
     * The prices of a load from its precomputed expected stack distances
     * (one entry of microSd()) — bit-identical to the expectedLatency*
     * forms, without re-deriving the stack distances per replay. Inline:
     * the replay kernel calls it once per sampled load.
     */
    LoadPrices loadPrices(const EpochStacks::OpSd &sd) const
    {
        // Walk the hierarchy with per-access hit/miss decisions. The hit
        // path excludes DRAM latency: the long-latency load stall is
        // Eq. 1's separate D-component.
        LoadPrices prices;
        prices.l1Only = static_cast<double>(core_.l1d.latency);
        prices.hit = prices.l1Only;
        if (sd.local >= static_cast<double>(l1Lines_)) {
            prices.hit += static_cast<double>(core_.l2.latency);
            if (sd.local >= static_cast<double>(l2Lines_))
                prices.hit += static_cast<double>(cfg_.llc.latency);
        }
        prices.full = prices.hit;
        // A DRAM access requires missing the private levels and the
        // shared LLC (its interleaved reuse must exceed the LLC reach).
        if (sd.local >= static_cast<double>(l2Lines_) &&
            sd.llc >= static_cast<double>(llcLines_)) {
            prices.full += static_cast<double>(core_.memLatency);
        }
        return prices;
    }

    /** Latency of every store (the store FU latency). */
    double storeLatency() const
    {
        return static_cast<double>(
            core_.fus[static_cast<size_t>(OpClass::Store)].latency);
    }

    /** The epoch's config-independent stack bundle. */
    const EpochStacks &stacks() const { return *stacks_; }

    /** Expected stack distances of the epoch's micro-trace loads, one
     *  per load in trace order (built by the stack bundle on first
     *  use). */
    const std::vector<EpochStacks::OpSd> &microSd() const
    {
        return stacks_->microSd();
    }

    /** Predicted I-cache component cycles for the whole epoch (additive
     *  Eq. 1 form; the replay-based path uses icachePerFetch instead). */
    double icacheCycles() const { return icacheCycles_; }

    /** Expected front-end stall per fetched micro-op. */
    double icachePerFetch() const
    {
        return epoch_.numOps > 0 ?
            icacheCycles_ / static_cast<double>(epoch_.numOps) : 0.0;
    }

  private:
    /** The reuse distance driving shared-LLC decisions for one op. */
    uint64_t llcRd(const MicroTraceOp &op) const;

    /** Expected stack distances of one op, computed on the spot. */
    EpochStacks::OpSd opSd(const MicroTraceOp &op) const;

    const EpochProfile &epoch_;
    const MulticoreConfig &cfg_;
    const CoreConfig &core_;
    std::shared_ptr<const EpochStacks> stacks_;

    uint64_t l1Lines_, l2Lines_, llcLines_;
    double l1dMiss_ = 0.0;
    double l2Miss_ = 0.0;
    double llcMiss_ = 0.0;
    double llcLoadMisses_ = 0.0;
    double llcLoadMissRate_ = 0.0;
    double icacheCycles_ = 0.0;
};

} // namespace rppm

#endif // RPPM_RPPM_MEMORY_MODEL_HH
