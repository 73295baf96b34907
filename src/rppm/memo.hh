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
 *    (StatStacks, per-load stack distances, memoized miss-rate curves) is
 *    built once and shared by every design point;
 *  - per (thread, phase-1 key): the full ThreadPrediction is evaluated
 *    once per distinct sub-config a thread actually runs on — a
 *    placement sweep over a big.LITTLE machine evaluates each thread
 *    once per core *kind*, not once per placement, and a DVFS axis with
 *    the bus off is free;
 *  - per (thread-key vector, time scales, sync cost): the phase-2
 *    symbolic synchronization execution.
 *
 * A grid first asks planThreads() for the phase-1 evaluations it needs
 * and the engine lacks, each distinct key once, and runs them (a Study
 * spreads them over its worker pool); its predict() calls then only
 * copy phase 1 and run phase 2. The distinct thread evaluations, not
 * the design points, are the grid's expensive unit of work.
 *
 * Every cached value is produced by the same code rppm::predict runs,
 * on the same inputs, so memoized predictions are bit-identical to
 * rppm::predict per design point (tests/test_predict_golden pins both
 * to the committed corpus tests/golden/predict.txt). All caches are
 * thread-safe and single-flight: one engine serves every worker of a
 * Study grid, and each key is evaluated exactly once — concurrent
 * misses on a key wait for the first caller's evaluation — so the
 * engine's counters do not depend on thread timing.
 */

#ifndef RPPM_RPPM_MEMO_HH
#define RPPM_RPPM_MEMO_HH

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
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

/**
 * Single-flight cache of shared immutable values: the first caller of a
 * key publishes an in-flight slot under the lock and evaluates outside
 * it; concurrent callers of that key wait on the slot instead of
 * evaluating again. Once evaluated, an entry holds just the value (the
 * slot is released), so a resident cache costs what a plain map would.
 * A throwing evaluation wakes its waiters with the exception and leaves
 * no entry behind, so a later call evaluates afresh. Thread-safe.
 */
template <typename K, typename T>
class OnceCache
{
  public:
    using Ptr = std::shared_ptr<const T>;

    /** The value of @p key, from @p eval() on the key's first call. */
    template <typename Eval>
    Ptr
    get(const K &key, Eval &&eval) RPPM_EXCLUDES(mutex_)
    {
        std::optional<std::promise<Ptr>> promise; // set: this call evaluates
        std::shared_future<Ptr> pending;
        {
            MutexLock lock(mutex_);
            const auto [it, inserted] = entries_.try_emplace(key);
            if (!inserted) {
                Entry &entry = it->second;
                if (entry.prefetched)
                    entry.prefetched = false;
                else
                    ++hits_;
                if (entry.value)
                    return entry.value;
                pending = entry.pending;
            } else {
                promise.emplace();
                it->second.pending = promise->get_future().share();
            }
        }
        if (!promise)
            return pending.get(); // waits; rethrows the evaluation's error
        return fill(key, *promise, eval);
    }

    /**
     * Evaluate @p key now, unless it is already held or in flight (then
     * this is a no-op). The evaluation is charged to the key's first
     * get(), which counts as the evaluating call rather than a hit, so
     * the counters read as if that get() had evaluated: a grid that
     * prefetches its keys reports what one that did not would.
     */
    template <typename Eval>
    void
    prefetch(const K &key, Eval &&eval) RPPM_EXCLUDES(mutex_)
    {
        std::promise<Ptr> promise;
        {
            MutexLock lock(mutex_);
            const auto [it, inserted] = entries_.try_emplace(key);
            if (!inserted)
                return;
            it->second.pending = promise.get_future().share();
            it->second.prefetched = true;
        }
        fill(key, promise, eval);
    }

    /** True when @p key is held or in flight. */
    bool contains(const K &key) const RPPM_EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        return entries_.count(key) != 0;
    }

    /** Evaluations performed (each key once, failures excluded). */
    uint64_t evaluations() const RPPM_EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        return evaluations_;
    }

    /** Calls served by an earlier or in-flight evaluation. */
    uint64_t hits() const RPPM_EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        return hits_;
    }

    /** Visit (key, value) of every finished evaluation. */
    template <typename Fn>
    void
    forEachReady(Fn &&fn) const RPPM_EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        // rppm-lint: ordered-ok(callers only sum over the entries)
        for (const auto &[key, entry] : entries_) {
            if (entry.value)
                fn(key, *entry.value);
        }
    }

  private:
    /** An evaluated value, or the slot its evaluation will fill. */
    struct Entry
    {
        Ptr value;
        std::shared_future<Ptr> pending;
        bool prefetched = false; ///< evaluation owed to the next get()
    };

    /** Evaluate the key this call published as in flight, then publish
     *  the value (or, on failure, drop the entry and wake the waiters
     *  with the error). */
    template <typename Eval>
    Ptr
    fill(const K &key, std::promise<Ptr> &promise, Eval &eval)
        RPPM_EXCLUDES(mutex_)
    {
        Ptr value;
        try {
            value = eval();
        } catch (...) {
            {
                MutexLock lock(mutex_);
                entries_.erase(key);
            }
            promise.set_exception(std::current_exception());
            throw;
        }
        {
            MutexLock lock(mutex_);
            Entry &entry = entries_.at(key);
            entry.value = value;
            entry.pending = {};
            ++evaluations_;
        }
        promise.set_value(value);
        return value;
    }

    mutable Mutex mutex_;
    std::unordered_map<K, Entry> entries_ RPPM_GUARDED_BY(mutex_);
    uint64_t evaluations_ RPPM_GUARDED_BY(mutex_) = 0;
    uint64_t hits_ RPPM_GUARDED_BY(mutex_) = 0;
};

/** One phase-1 thread evaluation of a grid (see planThreads). */
struct ThreadEval
{
    uint32_t thread = 0;
    std::string key;                      ///< the phase-1 cache key
    const MulticoreConfig *cfg = nullptr; ///< a config that needs it
    Eq1Options opts;
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
                           const RppmOptions &opts = {});

    /**
     * The phase-1 thread evaluations that predicting every config of
     * @p configs under @p opts needs and the engine does not yet hold:
     * each distinct (thread, phase-1 key) once, in config order with
     * threads inner. The tasks point into @p configs, which must
     * outlive them. A grid runs them (on any number of workers) before
     * its predict() calls, which then only copy phase 1 and run phase
     * 2; an engine that already served some configs returns only the
     * missing keys.
     */
    std::vector<ThreadEval>
    planThreads(const std::vector<MulticoreConfig> &configs,
                const Eq1Options &opts) const;

    /**
     * Evaluate @p task into the phase-1 cache. Single-flight, and a
     * no-op when the key is already held or in flight. The evaluation
     * is charged to the first predict() that reads it, so MemoStats
     * read exactly as if predict() had evaluated it. Thread-safe.
     */
    void runThread(const ThreadEval &task);

    MemoStats stats() const;

    /** Approximate heap footprint of the engine *including* the profile
     *  it keeps alive — the unit the pool's byte budget evicts in. */
    uint64_t approxResidentBytes() const;

  private:
    std::shared_ptr<const EpochStacks>
    stacksFor(uint32_t thread, size_t epoch, bool llc_global);

    /** Phase-1 evaluation of @p thread on @p cfg's mapped core. */
    std::shared_ptr<const ThreadPrediction>
    evaluateThread(uint32_t thread, const MulticoreConfig &cfg,
                   const Eq1Options &opts);

    std::shared_ptr<const WorkloadProfile> profile_;

    OnceCache<uint64_t, EpochStacks> stacks_;
    OnceCache<std::string, ThreadPrediction> threads_;
    OnceCache<std::string, SyncModelResult> sync_;
    std::atomic<uint64_t> predictions_{0};
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

    /** The engine resident for @p profile, or nullptr. A plain lookup:
     *  unlike forProfile it neither re-charges the engine (a walk of
     *  all its tables) nor enforces the budget. */
    std::shared_ptr<PredictionMemo>
    find(const WorkloadProfile &profile) const RPPM_EXCLUDES(mutex_);

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
 * PredictionMemo: the grid's distinct phase-1 thread evaluations
 * first (planThreads), then each point. Bit-identical to rppm::predict
 * per design point; @p stats (when non-null) receives the engine's
 * cache-efficiency counters.
 */
std::vector<RppmPrediction>
predictGrid(const WorkloadProfile &profile,
            const std::vector<MulticoreConfig> &configs,
            const RppmOptions &opts = {}, MemoStats *stats = nullptr);

} // namespace rppm

#endif // RPPM_RPPM_MEMO_HH
