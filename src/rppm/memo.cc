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
    {
        MutexLock lock(mutex_);
        const auto it = stacks_.find(key);
        if (it != stacks_.end())
            return it->second;
    }
    auto built = std::make_shared<const EpochStacks>(
        profile_->threads[thread].epochs[epoch], llc_global);
    MutexLock lock(mutex_);
    const auto [it, inserted] = stacks_.emplace(key, std::move(built));
    if (inserted)
        ++stats_.stacksBuilt;
    return it->second;
}

std::shared_ptr<const ThreadPrediction>
PredictionMemo::threadFor(uint32_t thread, const std::string &key,
                          const MulticoreConfig &cfg,
                          const CoreConfig &core, const Eq1Options &opts)
{
    {
        MutexLock lock(mutex_);
        const auto it = threads_.find(key);
        if (it != threads_.end()) {
            ++stats_.threadHits;
            return it->second;
        }
    }
    auto pred = std::make_shared<const ThreadPrediction>(predictThread(
        profile_->threads[thread], cfg, core, opts,
        [this, thread, &opts](size_t epoch) {
            return stacksFor(thread, epoch, opts.llcUsesGlobalRd);
        }));
    MutexLock lock(mutex_);
    const auto [it, inserted] = threads_.emplace(key, std::move(pred));
    ++stats_.threadEvals;
    return it->second;
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
    std::shared_ptr<const SyncModelResult> sync;
    {
        MutexLock lock(mutex_);
        const auto it = sync_.find(sync_key);
        if (it != sync_.end()) {
            ++stats_.syncHits;
            sync = it->second;
        }
    }
    if (!sync) {
        auto run = std::make_shared<const SyncModelResult>(
            runSyncModel(*profile_, pred.threads, cfg, opts.sync));
        MutexLock lock(mutex_);
        const auto [it, inserted] = sync_.emplace(sync_key, std::move(run));
        ++stats_.syncRuns;
        sync = it->second;
    }

    pred.totalCycles = sync->totalCycles;
    pred.totalSeconds = cfg.refCyclesToSeconds(sync->totalCycles);
    pred.threadIdle = sync->threadIdle;
    pred.activity = sync->activity;
    pred.threadSeconds.reserve(profile_->numThreads);
    for (uint32_t t = 0; t < profile_->numThreads; ++t)
        pred.threadSeconds.push_back(
            cfg.refCyclesToSeconds(sync->threadFinish[t]));

    MutexLock lock(mutex_);
    ++stats_.predictions;
    return pred;
}

MemoStats
PredictionMemo::stats() const
{
    MutexLock lock(mutex_);
    MemoStats out = stats_;
    for (const auto &[key, stacks] : stacks_) {
        out.curvePoints += stacks->curvePoints();
        out.curveHits += stacks->curveHits();
    }
    return out;
}

uint64_t
PredictionMemo::approxResidentBytes() const
{
    MutexLock lock(mutex_);
    // The engine pins its profile; charge it here so the pool budget
    // sees the real cost of keeping the engine around.
    uint64_t bytes = profile_->approxResidentBytes();
    // One EpochStacks bundle: the bundle itself (five StatStacks whose
    // tables are inline), one map node per memoized miss-rate curve
    // point, and the lazily built per-op stack distances of the epoch's
    // micro-trace loads.
    constexpr uint64_t kCurveNodeBytes = 4 * sizeof(void *) +
        sizeof(std::pair<const std::pair<uint8_t, uint64_t>, double>);
    for (const auto &[key, stacks] : stacks_) {
        bytes += sizeof(EpochStacks) +
            stacks->curvePoints() * kCurveNodeBytes;
        for (const auto &mt : stacks->epoch().microTraces)
            bytes += mt.ops.size() * sizeof(EpochStacks::OpSd);
    }
    // Phase-1/2 entries are small next to the bundles; charge key +
    // payload envelopes.
    for (const auto &[key, pred] : threads_)
        bytes += key.size() + sizeof(ThreadPrediction) + 64;
    for (const auto &[key, sync] : sync_)
        bytes += key.size() + sizeof(SyncModelResult) + 64;
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
