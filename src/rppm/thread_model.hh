/**
 * @file
 * Per-epoch active execution time model — Eq. 1 of the paper:
 *
 *   C = N/Deff                                   (base / ILP)
 *     + mbpred x (cres + cfr)                    (branch)
 *     + sum_i mILi x cL(i+1)                     (I-cache)
 *     + mLLC x cmem / MLP                        (D-cache)
 *
 * evaluated entirely from the microarchitecture-independent epoch profile
 * plus a target MulticoreConfig. This is phase 1 of the RPPM prediction
 * (Fig. 3b): per-thread, per-epoch active times, before synchronization
 * overhead is added in phase 2.
 */

#ifndef RPPM_RPPM_THREAD_MODEL_HH
#define RPPM_RPPM_THREAD_MODEL_HH

#include <functional>
#include <memory>

#include "arch/config.hh"
#include "profile/epoch_profile.hh"
#include "simcore/core_model.hh"
#include "statstack/epoch_stacks.hh"

namespace rppm {

/**
 * Ablation switches for Eq. 1. All default to the full model; each
 * switch removes one mechanism so its contribution to accuracy can be
 * quantified (see bench/ablation_model_components).
 */
struct Eq1Options
{
    /** Deff from micro-trace window replay; off = front-end width. */
    bool ilpReplay = true;

    /** Shared-LLC miss rates from the global interleaved reuse
     *  distances; off = per-thread distances (no interference). */
    bool llcUsesGlobalRd = true;

    /** Overlap long-latency loads in the window (MLP); off = serialize
     *  every DRAM access (MLP = 1). */
    bool mlpOverlap = true;

    /** Model branch mispredictions; off = perfect branch prediction. */
    bool branch = true;

    /**
     * Decompose the prediction into CPI-stack components (five replays
     * per epoch, run as lanes of one lockstep pass). The components
     * telescope, so turning this off runs only the final replay: same
     * total prediction, and phase 1 about 2x cheaper (Fluidanimate at
     * full scale over prebuilt stacks: ~100 vs ~210 ms on a 2.1 GHz
     * Xeon), but the stack collapses into Base. Use for large
     * design-space sweeps where only execution times matter.
     */
    bool decompose = true;
};

// A new switch must also enter eq1OptionsBits, or memo and batch keys
// would alias configurations that predict differently.
static_assert(sizeof(Eq1Options) == 5,
              "extend eq1OptionsBits with the new Eq1Options switch");

/** The Eq1Options switches packed into one byte: the fingerprint that
 *  PredictionMemo's phase-1 keys and rppmd's batch keys fold in. */
inline char
eq1OptionsBits(const Eq1Options &opts)
{
    return static_cast<char>(
        (opts.ilpReplay ? 1 : 0) | (opts.llcUsesGlobalRd ? 2 : 0) |
        (opts.mlpOverlap ? 4 : 0) | (opts.branch ? 8 : 0) |
        (opts.decompose ? 16 : 0));
}

/** Predicted timing of one epoch. */
struct EpochPrediction
{
    double cycles = 0.0;   ///< predicted active execution time
    CpiStack stack;        ///< component breakdown (absolute cycles)
    double deff = 1.0;     ///< effective dispatch rate used
    double mlp = 1.0;      ///< memory-level parallelism used
};

/**
 * Evaluate Eq. 1 for @p epoch running on core @p core of @p cfg. The
 * core supplies width/ROB/IQ/FU/branch/private-cache parameters; the
 * multicore supplies the shared LLC and bus. Resulting cycles are in
 * @p core's own clock domain.
 */
EpochPrediction predictEpoch(const EpochProfile &epoch,
                             const MulticoreConfig &cfg,
                             const CoreConfig &core,
                             const Eq1Options &opts = {});

/**
 * Same evaluation over a pre-built (shared) StatStack bundle for the
 * epoch — the memoized grid engine's entry point. @p stacks must match
 * @p epoch and opts.llcUsesGlobalRd; nullptr builds a private bundle
 * (equivalent to the overload above). Bit-identical either way.
 */
EpochPrediction predictEpoch(const EpochProfile &epoch,
                             const MulticoreConfig &cfg,
                             const CoreConfig &core,
                             const Eq1Options &opts,
                             std::shared_ptr<const EpochStacks> stacks);

/** Convenience: evaluate on core 0 (uniform machines). */
EpochPrediction predictEpoch(const EpochProfile &epoch,
                             const MulticoreConfig &cfg,
                             const Eq1Options &opts = {});

/** Predicted per-thread results across all epochs. */
struct ThreadPrediction
{
    std::vector<EpochPrediction> epochs;
    double activeCycles = 0.0; ///< sum of epoch times (no sync)
    CpiStack stack;
    uint64_t instructions = 0;
};

/** Supplies the shared StatStack bundle for epoch @p epochIdx of the
 *  thread being predicted (may return nullptr to build privately). */
using EpochStacksFn =
    std::function<std::shared_ptr<const EpochStacks>(size_t epochIdx)>;

/** Phase 1 for a whole thread on core @p core: predict every epoch
 *  independently. Cycles are in @p core's own clock domain. */
ThreadPrediction predictThread(const ThreadProfile &thread,
                               const MulticoreConfig &cfg,
                               const CoreConfig &core,
                               const Eq1Options &opts = {});

/** Same, drawing per-epoch StatStack bundles from @p stacks (the
 *  memoized engine's cache); an empty function builds privately. */
ThreadPrediction predictThread(const ThreadProfile &thread,
                               const MulticoreConfig &cfg,
                               const CoreConfig &core,
                               const Eq1Options &opts,
                               const EpochStacksFn &stacks);

/** Convenience: predict on core 0 (uniform machines). */
ThreadPrediction predictThread(const ThreadProfile &thread,
                               const MulticoreConfig &cfg,
                               const Eq1Options &opts = {});

} // namespace rppm

#endif // RPPM_RPPM_THREAD_MODEL_HH
