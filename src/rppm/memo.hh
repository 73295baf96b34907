/**
 * @file
 * Memoized component-level prediction engine — the "predict many" half
 * of profile-once-predict-many, made incremental.
 *
 * A per-point design-space sweep re-runs the full Eq.-1 pipeline (StatStack
 * miss curves, window replays, branch model, sync model) for every grid
 * point, even when most of the configuration fields a component reads
 * are unchanged from a neighboring point. PredictionMemo caches each
 * component's result under its parameter-subset key (arch/component_key)
 * for the lifetime of a grid:
 *
 *  - per (thread, epoch): the config-independent EpochStacks bundle
 *    (StatStacks, per-op stack distances, memoized miss-rate curves) is
 *    built once and shared by every design point;
 *  - per (thread, phase-1 key): the full ThreadPrediction is evaluated
 *    once per distinct sub-config a thread actually runs on — a
 *    placement sweep over a big.LITTLE machine evaluates each thread
 *    once per core *kind*, not once per placement, and a DVFS axis with
 *    the bus off is free;
 *  - per (thread-key vector, time scales, sync cost): the phase-2
 *    symbolic synchronization execution.
 *
 * Every cached value is produced by the same code rppm::predict runs,
 * on the same inputs, so memoized predictions are bit-identical to
 * rppm::predict per design point (tests/test_predict_golden pins both
 * to the committed corpus tests/golden/predict.txt). All caches are
 * thread-safe: one engine serves every worker of a Study grid.
 * Concurrent misses on one key may both evaluate (the first insert
 * wins), which is harmless — the evaluation is deterministic, so both
 * results are identical.
 */

#ifndef RPPM_RPPM_MEMO_HH
#define RPPM_RPPM_MEMO_HH

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/lru.hh"
#include "common/thread_annotations.hh"
#include "rppm/predictor.hh"

namespace rppm {

/** Cache-efficiency counters of one engine (or a whole pool). */
struct MemoStats
{
    uint64_t predictions = 0;  ///< predict() calls served
    uint64_t threadEvals = 0;  ///< phase-1 thread evaluations performed
    uint64_t threadHits = 0;   ///< phase-1 evaluations saved by the cache
    uint64_t syncRuns = 0;     ///< phase-2 symbolic executions performed
    uint64_t syncHits = 0;     ///< phase-2 executions saved
    uint64_t stacksBuilt = 0;  ///< EpochStacks bundles constructed
    uint64_t curvePoints = 0;  ///< distinct (stack, lines) CDF evaluations
    uint64_t curveHits = 0;    ///< miss-rate queries served from curves

    void add(const MemoStats &other);

    /** "thread evals 12 performed / 84 saved; sync 24/72; ..." */
    std::string summary() const;
};

/** Memoized prediction engine for one profile (see file comment). */
class PredictionMemo
{
  public:
    explicit PredictionMemo(std::shared_ptr<const WorkloadProfile> profile);

    const WorkloadProfile &profile() const { return *profile_; }

    /** Memoized equivalent of rppm::predict(profile, cfg, opts):
     *  bit-identical per design point, thread-safe. */
    RppmPrediction predict(const MulticoreConfig &cfg,
                           const RppmOptions &opts = {})
        RPPM_EXCLUDES(mutex_);

    MemoStats stats() const RPPM_EXCLUDES(mutex_);

    /** Approximate heap footprint of the engine *including* the profile
     *  it keeps alive — the unit the pool's byte budget evicts in. */
    uint64_t approxResidentBytes() const RPPM_EXCLUDES(mutex_);

  private:
    std::shared_ptr<const EpochStacks>
    stacksFor(uint32_t thread, size_t epoch, bool llc_global)
        RPPM_EXCLUDES(mutex_);

    std::shared_ptr<const ThreadPrediction>
    threadFor(uint32_t thread, const std::string &key,
              const MulticoreConfig &cfg, const CoreConfig &core,
              const Eq1Options &opts) RPPM_EXCLUDES(mutex_);

    std::shared_ptr<const WorkloadProfile> profile_;

    mutable Mutex mutex_;
    std::unordered_map<uint64_t, std::shared_ptr<const EpochStacks>>
        stacks_ RPPM_GUARDED_BY(mutex_);
    std::unordered_map<std::string, std::shared_ptr<const ThreadPrediction>>
        threads_ RPPM_GUARDED_BY(mutex_);
    std::unordered_map<std::string, std::shared_ptr<const SyncModelResult>>
        sync_ RPPM_GUARDED_BY(mutex_);
    MemoStats stats_ RPPM_GUARDED_BY(mutex_);
};

/**
 * Engines for a whole study, one per distinct profile (evaluator
 * variants with profiler-option overrides get their own). Thread-safe.
 */
class PredictionMemoPool
{
  public:
    /** The engine for @p profile, created on first use. */
    std::shared_ptr<PredictionMemo>
    forProfile(std::shared_ptr<const WorkloadProfile> profile)
        RPPM_EXCLUDES(mutex_);

    /** Aggregate stats over all engines. */
    MemoStats stats() const RPPM_EXCLUDES(mutex_);

    bool empty() const RPPM_EXCLUDES(mutex_);

    /**
     * Cap the pool at roughly @p bytes of engines (profile + memo-table
     * footprint per PredictionMemo::approxResidentBytes); 0 = unlimited,
     * the default. Eviction drops whole least-recently-used engines —
     * callers holding a shared_ptr from forProfile keep using theirs
     * unaffected; the next forProfile for that profile just rebuilds.
     * Engines hold their profile's shared_ptr, so the pointer keys can
     * never alias a freed-and-reallocated profile.
     */
    void setMaxResidentBytes(uint64_t bytes) RPPM_EXCLUDES(mutex_);

    /**
     * Shed roughly @p bytes of least-recently-used engines right now,
     * independent of the configured budget — the server's graceful-
     * degradation hook (memory pressure relief on demand). Returns the
     * bytes actually freed (possibly less when the pool is smaller than
     * the ask). Semantics match budget eviction: outstanding shared_ptr
     * holders are unaffected, the next forProfile rebuilds.
     */
    uint64_t shedBytes(uint64_t bytes) RPPM_EXCLUDES(mutex_);

    /** Budget-tier counters (lastMemoStats-style snapshot). */
    struct PoolStats
    {
        uint64_t engines = 0;       ///< engines currently resident
        uint64_t evictions = 0;     ///< engines dropped by the budget
        uint64_t residentBytes = 0; ///< approx bytes currently charged
    };
    PoolStats poolStats() const RPPM_EXCLUDES(mutex_);

  private:
    void enforceBudget() RPPM_REQUIRES(mutex_);

    mutable Mutex mutex_;
    std::unordered_map<const WorkloadProfile *,
                       std::shared_ptr<PredictionMemo>>
        engines_ RPPM_GUARDED_BY(mutex_);
    LruBudget<const WorkloadProfile *> lru_ RPPM_GUARDED_BY(mutex_);
    uint64_t maxResidentBytes_ RPPM_GUARDED_BY(mutex_) = 0;
    uint64_t evictions_ RPPM_GUARDED_BY(mutex_) = 0;
};

/**
 * Evaluate every design point of @p configs through one shared
 * PredictionMemo. Bit-identical to rppm::predict per design point;
 * @p stats (when non-null) receives the engine's cache-efficiency
 * counters.
 */
std::vector<RppmPrediction>
predictGrid(const WorkloadProfile &profile,
            const std::vector<MulticoreConfig> &configs,
            const RppmOptions &opts = {}, MemoStats *stats = nullptr);

} // namespace rppm

#endif // RPPM_RPPM_MEMO_HH
