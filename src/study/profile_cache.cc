#include "study/profile_cache.hh"

#include <unistd.h>

#include <filesystem>
#include <sstream>

#include "common/fault.hh"
#include "profile/serialize.hh"

namespace rppm {

std::string
profilerOptionsKey(const ProfilerOptions &opts)
{
    // Only the options that shape profile *content* enter the key.
    // opts.jobs and opts.streamChunkRecords are deliberately absent:
    // the profiler is bit-identical for every job count and chunk size,
    // so a cached artifact must serve all of them — profiling with 8
    // workers and re-reading with 1, or streaming out-of-core and
    // re-reading in-memory, is the same profile, same key, same bytes
    // (asserted by tests/test_profile_parallel.cc and
    // test_profile_streaming.cc).
    std::ostringstream key;
    key << "mtl" << opts.microTraceLength
        << "-mti" << opts.microTraceInterval
        << "-q" << opts.quantum
        << "-lb" << opts.lineBytes
        << "-inv" << (opts.detectInvalidation ? 1 : 0);
    return key.str();
}

namespace {

/** Filesystem-safe rendering of an arbitrary workload name. */
std::string
sanitize(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                        c == '.';
        out.push_back(ok ? c : '_');
    }
    return out;
}

std::string
cacheKey(const std::string &workload, const ProfilerOptions &opts)
{
    return workload + '\x1f' + profilerOptionsKey(opts);
}

/** Serialized-artifact path; "" when the disk tier is disabled. */
std::string
diskPath(const std::string &dir, const std::string &workload,
         const ProfilerOptions &opts)
{
    if (dir.empty())
        return {};
    return dir + "/" + sanitize(workload) + "." + profilerOptionsKey(opts) +
           ".rppmprof";
}

} // namespace

void
ProfileCache::setDirectory(std::string dir)
{
    MutexLock lock(mutex_);
    dir_ = std::move(dir);
}

void
ProfileCache::setMaxResidentBytes(uint64_t bytes)
{
    MutexLock lock(mutex_);
    maxResidentBytes_ = bytes;
    if (maxResidentBytes_ != 0) {
        for (const std::string &victim : lru_.shrinkTo(maxResidentBytes_)) {
            entries_.erase(victim);
            ++stats_.evictions;
        }
    }
}

std::string
ProfileCache::pathFor(const std::string &workload,
                      const ProfilerOptions &opts) const
{
    MutexLock lock(mutex_);
    return diskPath(dir_, workload, opts);
}

ProfileCache::ProfilePtr
ProfileCache::getOrCompute(const std::string &workload,
                           const ProfilerOptions &opts,
                           const std::function<WorkloadProfile()> &compute)
{
    const std::string key = cacheKey(workload, opts);

    std::promise<ProfilePtr> promise;
    std::shared_future<ProfilePtr> waitOn;
    std::string dir;
    bool owner = false;
    {
        MutexLock lock(mutex_);
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            ++stats_.memoryHits;
            lru_.touch(key);
            waitOn = it->second;
        } else {
            entries_.emplace(key, promise.get_future().share());
            owner = true;
            dir = dir_;
        }
    }
    // Wait outside the lock: the computing thread needs the map.
    if (!owner)
        return waitOn.get();

    // This thread owns the computation for this key.
    const std::string path = diskPath(dir, workload, opts);

    try {
        ProfilePtr profile;
        bool from_disk = false;
        if (!path.empty() && std::filesystem::exists(path)) {
            try {
                auto loaded = std::make_shared<const WorkloadProfile>(
                    loadProfileBinaryFromFile(path));
                // Guard against sanitized-name collisions (distinct
                // workloads mapping to one file): the artifact must
                // actually be the requested workload's profile.
                if (loaded->name == workload) {
                    profile = std::move(loaded);
                    from_disk = true;
                }
            } catch (const std::exception &) {
                // Corrupt, old-version or legacy text-format artifact:
                // treat as a miss and recompute (self-healing). Set the
                // bad bytes aside as *.corrupt rather than overwriting
                // blind — a checksum failure is evidence of storage
                // trouble worth post-morteming, and the quarantine also
                // guarantees the rewrite below starts from a clean slate.
                std::error_code ec;
                std::filesystem::rename(path, path + ".corrupt", ec);
                if (!ec) {
                    MutexLock lock(mutex_);
                    ++stats_.quarantined;
                }
            }
        }
        if (!profile) {
            profile =
                std::make_shared<const WorkloadProfile>(compute());
            if (!path.empty()) {
                try {
                    std::filesystem::create_directories(dir);
                    // Crash-safe publication: serialize to memory, then
                    // write-tmp + fsync + rename (common/fault.hh). The
                    // fsync closes the rename-before-data crash window;
                    // concurrent processes sharing the directory never
                    // observe a torn artifact.
                    std::ostringstream bytes;
                    saveProfileBinary(*profile, bytes);
                    io::writeFileAtomic(path, bytes.str());
                } catch (const std::exception &) {
                    // The disk tier is an optimization: a write failure
                    // (read-only or full filesystem) must not poison a
                    // study that already has its profile in memory.
                }
            }
        }
        {
            MutexLock lock(mutex_);
            if (from_disk)
                ++stats_.diskHits;
            else
                ++stats_.misses;
            // The entry is complete: start charging it to the budget and
            // evict LRU completed entries that no longer fit. In-flight
            // computations are never in lru_, so they are never evicted;
            // waiters on an evicted key hold their shared_future, so
            // results are never lost, only forgotten.
            lru_.add(key, profile->approxResidentBytes());
            if (maxResidentBytes_ != 0) {
                for (const std::string &victim :
                     lru_.shrinkTo(maxResidentBytes_)) {
                    entries_.erase(victim);
                    ++stats_.evictions;
                }
            }
        }
        promise.set_value(profile);
        return profile;
    } catch (...) {
        // Un-cache the failed entry so a later request can retry, then
        // propagate to this caller and to any waiters.
        {
            MutexLock lock(mutex_);
            entries_.erase(key);
        }
        promise.set_exception(std::current_exception());
        throw;
    }
}

uint64_t
ProfileCache::shedBytes(uint64_t bytes)
{
    MutexLock lock(mutex_);
    const uint64_t before = lru_.bytes();
    const uint64_t target = before > bytes ? before - bytes : 0;
    for (const std::string &victim : lru_.shrinkTo(target)) {
        entries_.erase(victim);
        ++stats_.evictions;
    }
    return before - lru_.bytes();
}

void
ProfileCache::clearMemory()
{
    MutexLock lock(mutex_);
    entries_.clear();
    lru_.shrinkTo(0);
}

ProfileCache::Stats
ProfileCache::stats() const
{
    MutexLock lock(mutex_);
    Stats out = stats_;
    out.residentBytes = lru_.bytes();
    return out;
}

} // namespace rppm
