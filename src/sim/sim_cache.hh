/**
 * @file
 * Set-associative true-LRU cache of the simulator's memory hierarchy.
 *
 * A functional cache: it tracks tag state exactly (sets, ways, true
 * LRU) and reports hit or miss, so the hierarchy can charge real
 * latencies. No data is stored. Coherence state is kept one level up in
 * SimHierarchy's directory; the cache itself supports targeted
 * invalidation. Laid out for the simulator's access rate:
 *
 *  - SoA layout: one contiguous tag array and one LRU-stamp array, so a
 *    probe touches one cache line of tags.
 *  - No valid or dirty bits. Validity is encoded as LRU stamp 0 (the
 *    pre-incremented clock never assigns 0 to a live way, and
 *    invalidation resets the stamp), which keeps the probe loop to two
 *    parallel array reads. No writeback is modeled, so a dirty bit
 *    would be write-only state.
 *  - Set index and tag use shift/mask when the geometry is a power of
 *    two (the common case) instead of 64-bit division, with an exact
 *    division fallback otherwise. Callers that already know the line
 *    number (the hierarchy computes it once per access for the
 *    directory; every level shares one line size, which
 *    MulticoreConfig::validate() enforces) use the *Line entry points
 *    and skip the address-to-line division entirely.
 *
 * Victim policy: the first invalid way, otherwise the way with the
 * strictly smallest LRU stamp in way order. `victim` only ever moves to
 * an invalid way (stamp 0, where it then sticks) or to a strictly
 * smaller stamp; live stamps are distinct, so the choice is unique.
 * tests/test_cache.cc covers the policy directly, and
 * tests/test_sim_parallel.cc pins the simulator's results on the whole
 * workload suite to the committed corpus.
 */

#ifndef RPPM_SIM_SIM_CACHE_HH
#define RPPM_SIM_SIM_CACHE_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "arch/config.hh"
#include "common/assert.hh"

namespace rppm {

/** Statistics for one cache instance. */
struct CacheStats
{
    uint64_t accesses = 0;
    uint64_t misses = 0;
    uint64_t invalidations = 0;   ///< lines invalidated by coherence

    double missRate() const
    {
        return accesses ? static_cast<double>(misses) /
            static_cast<double>(accesses) : 0.0;
    }
};

/** Set-associative true-LRU tag store. */
class SimCache
{
  public:
    explicit SimCache(const CacheConfig &cfg)
        : cfg_(cfg), numSets_(cfg.numSets()), assoc_(cfg.assoc)
    {
        RPPM_REQUIRE(numSets_ > 0, "cache must have at least one set");
        tags_.resize(static_cast<size_t>(numSets_) * assoc_);
        lru_.resize(static_cast<size_t>(numSets_) * assoc_);
        lineShift_ = std::has_single_bit(cfg_.lineBytes) ?
            static_cast<uint32_t>(std::countr_zero(cfg_.lineBytes)) :
            kNoShift;
        setShift_ = std::has_single_bit(numSets_) ?
            static_cast<uint32_t>(std::countr_zero(numSets_)) : kNoShift;
    }

    /** Line number for a byte address under this config. */
    uint64_t
    lineOf(uint64_t addr) const
    {
        return lineShift_ != kNoShift ? addr >> lineShift_ :
                                        addr / cfg_.lineBytes;
    }

    /**
     * Look up line @p line; on a miss, allocate it (evicting the LRU
     * way). @return true on a hit.
     */
    bool
    accessLine(uint64_t line, bool is_write)
    {
        (void)is_write; // no writeback is modeled
        ++stats_.accesses;
        size_t set;
        uint64_t tag;
        split(line, set, tag);
        uint64_t *tags = &tags_[set * assoc_];
        uint64_t *lru = &lru_[set * assoc_];
        uint32_t victim = 0;
        for (uint32_t w = 0; w < assoc_; ++w) {
            if (lru[w] != 0 && tags[w] == tag) {
                lru[w] = ++lruClock_;
                return true;
            }
            if (lru[victim] != 0 &&
                (lru[w] == 0 || lru[w] < lru[victim])) {
                victim = w;
            }
        }
        ++stats_.misses;
        tags[victim] = tag;
        lru[victim] = ++lruClock_;
        return false;
    }

    /** As accessLine(), by byte address. */
    bool
    access(uint64_t addr, bool is_write)
    {
        return accessLine(lineOf(addr), is_write);
    }

    /**
     * Software-prefetch the tag/LRU rows a future accessLine(line) will
     * probe. No architectural effect — pure latency hiding for callers
     * that know their access stream ahead of time (the columnar engines
     * read addresses straight out of the trace's addr column).
     */
    void
    prefetchLine(uint64_t line) const
    {
        size_t set;
        uint64_t tag;
        split(line, set, tag);
        __builtin_prefetch(&tags_[set * assoc_]);
        __builtin_prefetch(&lru_[set * assoc_]);
    }

    /** Invalidate line @p line if present; @return true if it was. */
    bool
    invalidateLine(uint64_t line)
    {
        size_t set;
        uint64_t tag;
        split(line, set, tag);
        uint64_t *tags = &tags_[set * assoc_];
        uint64_t *lru = &lru_[set * assoc_];
        for (uint32_t w = 0; w < assoc_; ++w) {
            if (lru[w] != 0 && tags[w] == tag) {
                lru[w] = 0;
                ++stats_.invalidations;
                return true;
            }
        }
        return false;
    }

    const CacheStats &stats() const { return stats_; }
    const CacheConfig &config() const { return cfg_; }

  private:
    static constexpr uint32_t kNoShift = UINT32_MAX;

    void
    split(uint64_t line, size_t &set, uint64_t &tag) const
    {
        if (setShift_ != kNoShift) {
            set = static_cast<size_t>(line & (numSets_ - 1));
            tag = line >> setShift_;
        } else {
            set = static_cast<size_t>(line % numSets_);
            tag = line / numSets_;
        }
    }

    CacheConfig cfg_;
    uint32_t numSets_;
    uint32_t assoc_;
    uint32_t lineShift_ = kNoShift;
    uint32_t setShift_ = kNoShift;
    std::vector<uint64_t> tags_;
    std::vector<uint64_t> lru_; ///< recency stamp; 0 = way invalid
    uint64_t lruClock_ = 0;
    CacheStats stats_;
};

} // namespace rppm

#endif // RPPM_SIM_SIM_CACHE_HH
