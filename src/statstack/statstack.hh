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
 * driven: the bucket geometry lives in one static immutable table, the
 * model keeps only two inline arrays (no heap, no histogram copy), and
 * runs of empty buckets share one division. Results are bit-identical
 * to evaluating LogHistogram::survival() bucket by bucket.
 */

#ifndef RPPM_STATSTACK_STATSTACK_HH
#define RPPM_STATSTACK_STATSTACK_HH

#include <array>
#include <cstdint>

#include "common/histogram.hh"

namespace rppm {

/**
 * StatStack model built from one reuse-distance distribution.
 *
 * Construction turns the histogram into two inline tables over its log
 * buckets, the suffix counts and the survival prefix sums, so
 * stackDistance() and missRate() need neither the histogram nor a heap
 * allocation. The per-bucket geometry (bounds, widths, midpoint
 * fractions) comes from one static immutable table shared by every
 * stack. Every value is bit-identical to evaluating
 * LogHistogram::survival() at the bucket midpoints: the suffix sums are
 * exact integers and each floating-point expression keeps its order.
 */
class StatStack
{
  public:
    static constexpr size_t kBuckets = LogHistogram::numBuckets();

    /** Empty model: no samples, stack distance equals reuse distance. */
    StatStack();

    /** Build from a reuse-distance histogram (may be empty). The
     *  histogram is not retained. */
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

  private:
    /** Finite samples in bucket @p idx, recovered from the suffix
     *  counts (exact integer arithmetic). */
    uint64_t countAt(size_t idx) const
    {
        return idx == 0 ? total_ - suffixCounts_[0]
                        : suffixCounts_[idx - 1] - suffixCounts_[idx];
    }

    /**
     * LogHistogram::survival(bucketMid(idx)), evaluated from the suffix
     * counts in O(1) with the same operations in the same order.
     */
    double survivalAtBucketMid(size_t idx) const;

    uint64_t total_ = 0;    ///< finite + infinite samples
    uint64_t infinite_ = 0; ///< infinite samples
    // suffixCounts_[i]: infinite samples plus all finite samples in
    // buckets strictly after i.
    std::array<uint64_t, kBuckets> suffixCounts_;
    // survivalPrefix_[i]: sum over j in [0, bucketHi(i)] of survival(j),
    // i.e. the expected stack distance of a reuse distance at the end of
    // bucket i. Interpolated within buckets on query.
    std::array<double, kBuckets> survivalPrefix_;
};

} // namespace rppm

#endif // RPPM_STATSTACK_STATSTACK_HH
