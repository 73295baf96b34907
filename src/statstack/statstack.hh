/**
 * @file
 * StatStack: statistical LRU cache modeling from reuse distances
 * (Eklov & Hagersten, ISPASS 2010), including the multi-threaded
 * extension the paper uses (Ahlman's thesis [1]).
 *
 * Reuse distance (accesses between two touches of the same line) is cheap
 * to collect; stack distance (unique lines in between, which determines
 * LRU hits) is expensive. StatStack converts between them statistically:
 * for an access with reuse distance D, the expected stack distance is
 *
 *     sd(D) = sum_{j=1..D} P(reuse distance of an interior access > j)
 *           = sum_{j=1..D} survival(j)
 *
 * i.e. the expected number of interior accesses whose own reuse extends
 * past the window end — exactly the accesses contributing unique lines.
 * The miss rate of a fully-associative LRU cache with L lines is then the
 * fraction of accesses whose expected stack distance exceeds L, plus cold
 * misses (infinite reuse distances).
 *
 * For multi-threaded workloads the same machinery runs on two reuse
 * distance flavours (paper Fig. 2): per-thread distributions predict the
 * private L1/L2, and global interleaved distributions predict the shared
 * LLC, capturing both positive (sharing) and negative (capacity)
 * interference. Coherence write-invalidations appear as infinite
 * per-thread reuse distances and therefore as guaranteed misses.
 *
 * A prediction builds five stacks per epoch, and sync-dense workloads
 * have tens of thousands of short epochs, so construction is table
 * driven and sparse: the bucket geometry lives in one static immutable
 * table, and a stack keeps one slot per non-empty bucket of its
 * histogram (no histogram copy). Results are bit-identical to evaluating
 * LogHistogram::survival() bucket by bucket.
 */

#ifndef RPPM_STATSTACK_STATSTACK_HH
#define RPPM_STATSTACK_STATSTACK_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/histogram.hh"

namespace rppm {

/**
 * StatStack model built from one reuse-distance distribution.
 *
 * Construction turns the histogram into one slot per non-empty bucket:
 * the suffix count after the bucket and the survival prefix sums just
 * before and through it. A 160-bit occupancy mask maps a bucket to its
 * slot in O(1). Between two non-empty buckets lies a run of empty ones
 * whose survival is one constant; the prefix through such a bucket is
 * re-added from the run's start, one bucket at a time in the original
 * order, so every value is bit-identical to the dense tables of
 * LogHistogram::survival() at the bucket midpoints: the suffix sums are
 * exact integers and each floating-point expression keeps its order.
 *
 * A query at a non-empty bucket (every micro-trace access, whose reuse
 * distance was sampled into the same histogram) is O(1); one that lands
 * in a run of empty buckets costs the run's length.
 */
class StatStack
{
  public:
    static constexpr size_t kBuckets = LogHistogram::numBuckets();

    /** Empty model: no samples, stack distance equals reuse distance. */
    StatStack() = default;

    /** Build from a reuse-distance histogram in either form (may be
     *  empty). The histogram is not retained. */
    explicit StatStack(const LogHistogram &reuse_distances);

    /** Expected stack distance for an access with reuse distance @p rd. */
    double stackDistance(uint64_t rd) const;

    /**
     * Predicted miss rate of a fully-associative LRU cache with
     * @p cache_lines lines, including cold misses.
     */
    double missRate(uint64_t cache_lines) const;

    /**
     * Smallest reuse distance whose expected stack distance reaches
     * @p cache_lines — accesses with larger reuse distances miss.
     */
    uint64_t criticalReuseDistance(uint64_t cache_lines) const;

    /** True when no finite samples were available. */
    bool empty() const { return total_ == infinite_; }

    /** Heap bytes held by the slots (allocated capacity). */
    uint64_t heapBytes() const { return slots_.capacity() * sizeof(Slot); }

  private:
    /** One non-empty bucket. */
    struct Slot
    {
        /** Infinite samples plus finite samples in later buckets. */
        uint64_t suffix;
        /** Survival prefix through the previous bucket: the expected
         *  stack distance of a reuse distance just below this bucket. */
        double before;
        /** Survival prefix through this bucket. */
        double after;
    };

    bool present(size_t bucket) const
    {
        return (mask_[bucket / 64] >> (bucket % 64)) & 1;
    }

    /** Number of non-empty buckets below @p bucket: the slot of
     *  @p bucket when it is present, else of the next non-empty one. */
    size_t rank(size_t bucket) const;

    /** Bucket of slot @p k. */
    size_t bucketOf(size_t k) const;

    /** Infinite samples plus finite samples in buckets >= the bucket of
     *  slot @p k (every sample when k == 0): the suffix count of each
     *  empty bucket just before slot k. */
    uint64_t suffixBefore(size_t k) const
    {
        return k == 0 ? total_ : slots_[k - 1].suffix;
    }

    /** Suffix count of bucket @p idx (LogHistogram::survival's "above"). */
    uint64_t suffixAt(size_t idx) const;

    /** Finite samples in bucket @p idx (exact integer arithmetic). */
    uint64_t countAt(size_t idx) const;

    /** Survival of every bucket of the empty run before slot @p k (the
     *  run after the last slot when k == number of slots). */
    double runSurvival(size_t k) const;

    /** Survival prefix through bucket @p idx. */
    double prefixThrough(size_t idx) const;

    /**
     * LogHistogram::survival(bucketMid(idx)), evaluated from the suffix
     * counts in O(1) with the same operations in the same order.
     */
    double survivalAtBucketMid(size_t idx) const;

    uint64_t total_ = 0;    ///< finite + infinite samples
    uint64_t infinite_ = 0; ///< infinite samples
    /** Bit i set when bucket i holds finite samples. */
    std::array<uint64_t, (kBuckets + 63) / 64> mask_{};
    /** One slot per non-empty bucket, in bucket order. */
    std::vector<Slot> slots_;
};

} // namespace rppm

#endif // RPPM_STATSTACK_STATSTACK_HH
