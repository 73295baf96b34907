#include "rppm/memo.hh"

#include <sstream>
#include <utility>

#include "arch/component_key.hh"
#include "common/assert.hh"
#include "rppm/thread_model.hh"

namespace rppm {

namespace {

void
appendU32(std::string &buf, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

} // namespace

// ------------------------------------------------------------ MemoStats ---

void
MemoStats::add(const MemoStats &other)
{
    predictions += other.predictions;
    threadEvals += other.threadEvals;
    threadHits += other.threadHits;
    syncRuns += other.syncRuns;
    syncHits += other.syncHits;
    stacksBuilt += other.stacksBuilt;
    curvePoints += other.curvePoints;
    curveHits += other.curveHits;
}

std::string
MemoStats::summary() const
{
    std::ostringstream os;
    os << predictions << " predictions: thread evals " << threadEvals
       << " performed / " << threadHits << " saved; sync " << syncRuns
       << " / " << syncHits << "; miss-curve points " << curvePoints
       << " / " << curveHits << "; stack bundles " << stacksBuilt;
    return os.str();
}

// ------------------------------------------------------- PredictionMemo ---

PredictionMemo::PredictionMemo(
    std::shared_ptr<const WorkloadProfile> profile)
    : profile_(std::move(profile))
{
    RPPM_REQUIRE(profile_ != nullptr, "null profile");
}

std::shared_ptr<const EpochStacks>
PredictionMemo::stacksFor(uint32_t thread, size_t epoch, bool llc_global)
{
    const uint64_t key = ((static_cast<uint64_t>(thread) << 32 |
                          static_cast<uint64_t>(epoch)) << 1) |
        (llc_global ? 1 : 0);
    return stacks_.get(key, [&] {
        return std::make_shared<const EpochStacks>(
            profile_->threads[thread].epochs[epoch], llc_global);
    });
}

std::shared_ptr<const ThreadPrediction>
PredictionMemo::threadFor(uint32_t thread, const std::string &key,
                          const MulticoreConfig &cfg,
                          const CoreConfig &core, const Eq1Options &opts)
{
    return threads_.get(key, [&] {
        return std::make_shared<const ThreadPrediction>(predictThread(
            profile_->threads[thread], cfg, core, opts,
            [this, thread, &opts](size_t epoch) {
                return stacksFor(thread, epoch, opts.llcUsesGlobalRd);
            }));
    });
}

RppmPrediction
PredictionMemo::predict(const MulticoreConfig &cfg, const RppmOptions &opts)
{
    cfg.validate();
    RppmPrediction pred;
    pred.workload = profile_->name;
    pred.config = cfg.name;

    // Phase 1 through the component cache: each distinct per-thread
    // sub-config (mapped core x shared LLC/bus x options) is evaluated
    // exactly once per grid, then copied into place.
    const char opt_bits = eq1OptionsBits(opts.eq1);
    std::string sync_key;
    pred.threads.reserve(profile_->numThreads);
    pred.threadCoreIds.reserve(profile_->numThreads);
    for (uint32_t t = 0; t < profile_->numThreads; ++t) {
        std::string key = threadComponentKey(cfg, t);
        key.push_back(opt_bits);
        appendU32(key, t);
        sync_key += key;
        appendKeyF64(sync_key, cfg.threadTimeScale(t));
        pred.threadCoreIds.push_back(cfg.coreOf(t));
        pred.threads.push_back(
            *threadFor(t, key, cfg, cfg.threadCore(t), opts.eq1));
    }
    appendKeyF64(sync_key, opts.sync.syncOpCost);

    // Phase 2: reused only when every input that feeds the symbolic
    // execution matches — the per-thread predictions (via their keys),
    // the per-thread reference time scales and the sync-op cost.
    const std::shared_ptr<const SyncModelResult> sync =
        sync_.get(sync_key, [&] {
            return std::make_shared<const SyncModelResult>(
                runSyncModel(*profile_, pred.threads, cfg, opts.sync));
        });

    pred.totalCycles = sync->totalCycles;
    pred.totalSeconds = cfg.refCyclesToSeconds(sync->totalCycles);
    pred.threadIdle = sync->threadIdle;
    pred.activity = sync->activity;
    pred.threadSeconds.reserve(profile_->numThreads);
    for (uint32_t t = 0; t < profile_->numThreads; ++t)
        pred.threadSeconds.push_back(
            cfg.refCyclesToSeconds(sync->threadFinish[t]));

    predictions_.fetch_add(1, std::memory_order_relaxed);
    return pred;
}

MemoStats
PredictionMemo::stats() const
{
    MemoStats out;
    out.predictions = predictions_.load(std::memory_order_relaxed);
    out.threadEvals = threads_.evaluations();
    out.threadHits = threads_.hits();
    out.syncRuns = sync_.evaluations();
    out.syncHits = sync_.hits();
    out.stacksBuilt = stacks_.evaluations();
    stacks_.forEachReady([&out](uint64_t, const EpochStacks &stacks) {
        out.curvePoints += stacks.curvePoints();
        out.curveHits += stacks.curveHits();
    });
    return out;
}

uint64_t
PredictionMemo::approxResidentBytes() const
{
    // The engine pins its profile; charge it here so the pool budget
    // sees the real cost of keeping the engine around. Each stack
    // bundle charges its slots, curve nodes and per-load distances.
    uint64_t bytes = profile_->approxResidentBytes();
    stacks_.forEachReady([&bytes](uint64_t, const EpochStacks &stacks) {
        bytes += stacks.approxResidentBytes();
    });
    // Phase-1/2 entries are small next to the bundles; charge key +
    // payload envelopes.
    threads_.forEachReady(
        [&bytes](const std::string &key, const ThreadPrediction &) {
            bytes += key.size() + sizeof(ThreadPrediction) + 64;
        });
    sync_.forEachReady(
        [&bytes](const std::string &key, const SyncModelResult &) {
            bytes += key.size() + sizeof(SyncModelResult) + 64;
        });
    return bytes;
}

// --------------------------------------------------- PredictionMemoPool ---

std::shared_ptr<PredictionMemo>
PredictionMemoPool::forProfile(std::shared_ptr<const WorkloadProfile> profile)
{
    RPPM_REQUIRE(profile != nullptr, "null profile");
    MutexLock lock(mutex_);
    auto it = engines_.find(profile.get());
    if (it == engines_.end()) {
        it = engines_
                 .emplace(profile.get(),
                          std::make_shared<PredictionMemo>(profile))
                 .first;
    }
    std::shared_ptr<PredictionMemo> engine = it->second;
    // Re-charge on every touch: engines grow as their memo tables fill,
    // and the recency bump is what makes the budget LRU rather than FIFO.
    lru_.add(profile.get(), engine->approxResidentBytes());
    enforceBudget();
    return engine;
}

void
PredictionMemoPool::setMaxResidentBytes(uint64_t bytes)
{
    MutexLock lock(mutex_);
    maxResidentBytes_ = bytes;
    enforceBudget();
}

uint64_t
PredictionMemoPool::shedBytes(uint64_t bytes)
{
    MutexLock lock(mutex_);
    const uint64_t before = lru_.bytes();
    const uint64_t target = before > bytes ? before - bytes : 0;
    for (const WorkloadProfile *victim : lru_.shrinkTo(target)) {
        engines_.erase(victim);
        ++evictions_;
    }
    return before - lru_.bytes();
}

void
PredictionMemoPool::enforceBudget()
{
    if (maxResidentBytes_ == 0)
        return;
    for (const WorkloadProfile *victim : lru_.shrinkTo(maxResidentBytes_)) {
        engines_.erase(victim);
        ++evictions_;
    }
}

PredictionMemoPool::PoolStats
PredictionMemoPool::poolStats() const
{
    MutexLock lock(mutex_);
    PoolStats out;
    out.engines = engines_.size();
    out.evictions = evictions_;
    out.residentBytes = lru_.bytes();
    return out;
}

MemoStats
PredictionMemoPool::stats() const
{
    MutexLock lock(mutex_);
    MemoStats out;
    for (const auto &[key, engine] : engines_)
        out.add(engine->stats());
    return out;
}

bool
PredictionMemoPool::empty() const
{
    MutexLock lock(mutex_);
    return engines_.empty();
}

// ----------------------------------------------------------- grid APIs ---

std::vector<RppmPrediction>
predictGrid(const WorkloadProfile &profile,
            const std::vector<MulticoreConfig> &configs,
            const RppmOptions &opts, MemoStats *stats)
{
    // Non-owning alias: the engine only lives for this call.
    PredictionMemo memo(std::shared_ptr<const WorkloadProfile>(
        std::shared_ptr<const WorkloadProfile>(), &profile));
    std::vector<RppmPrediction> out;
    out.reserve(configs.size());
    for (const MulticoreConfig &cfg : configs)
        out.push_back(memo.predict(cfg, opts));
    if (stats)
        *stats = memo.stats();
    return out;
}

} // namespace rppm
