/**
 * @file
 * Log-bucketed histogram used throughout the profiler.
 *
 * Reuse-distance and dependence-distance distributions span many orders of
 * magnitude, so the profiler stores them in logarithmically spaced buckets:
 * a handful of linear buckets for small values followed by sub-divided
 * power-of-two buckets, enough resolution for StatStack's conversion.
 *
 * A histogram lives in one of two forms. While the profiler accumulates
 * an epoch it is dense: one counter per bucket, so add() is an indexed
 * increment. Once the epoch is closed the profiler freezes it: only the
 * non-empty (bucket, count) entries remain, in bucket order. A profile
 * epoch's distributions fill a handful of the 160 buckets, so a frozen
 * epoch costs a few hundred bytes of histogram storage instead of ~9 KB.
 * Both forms answer every query with the same values in the same order;
 * a frozen histogram still accepts add() and merge() (an ordered insert).
 */

#ifndef RPPM_COMMON_HISTOGRAM_HH
#define RPPM_COMMON_HISTOGRAM_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace rppm {

/**
 * Log-bucketed histogram over non-negative 64-bit values, with a dedicated
 * bucket for "infinite" samples (used for cold misses / coherence
 * invalidations, which StatStack records as infinite reuse distance).
 */
class LogHistogram
{
  public:
    /** Sentinel sample value mapped to the infinity bucket. */
    static constexpr uint64_t kInfinity =
        std::numeric_limits<uint64_t>::max();

    LogHistogram();

    /** Add @p count samples of value @p value. Inline: this is called
     *  one-to-three times per micro-op on the profiler's hot path. */
    void
    add(uint64_t value, uint64_t count = 1)
    {
        if (count == 0)
            return;
        if (value == kInfinity) {
            infinite_ += count;
            return;
        }
        // Dense with its counters allocated, or frozen with every bucket
        // non-empty: either way entry i is bucket i.
        const size_t idx = bucketIndex(value);
        if (counts_.size() == kTotalBuckets)
            counts_[idx] += count;
        else
            addSlow(idx, count);
        totalFinite_ += count;
    }

    /** Merge another histogram (either form) into this one; the result
     *  keeps this histogram's form. */
    void merge(const LogHistogram &other);

    /** Switch to the frozen form: keep only the non-empty buckets, in
     *  exactly-sized storage (on a frozen histogram: trim the storage
     *  that inserts grew). Idempotent; values are unchanged. */
    void freeze();

    /** True once freeze() has run. */
    bool frozen() const { return frozen_; }

    /** Frozen form: make room for @p buckets non-empty buckets, so that
     *  adding them in bucket order allocates once (the deserializers
     *  know the count up front). No effect on a dense histogram. */
    void reserve(size_t buckets);

    /** Number of non-empty finite buckets. */
    size_t nonEmptyBuckets() const;

    /** Heap bytes held by the bucket storage (allocated capacity). */
    uint64_t heapBytes() const
    {
        return counts_.capacity() * sizeof(uint64_t) + buckets_.capacity();
    }

    /** Total number of finite samples. */
    uint64_t totalFinite() const { return totalFinite_; }

    /** Number of samples recorded as infinite. */
    uint64_t totalInfinite() const { return infinite_; }

    /** Total number of samples (finite + infinite). */
    uint64_t total() const { return totalFinite_ + infinite_; }

    /** True when no samples have been recorded. */
    bool empty() const { return total() == 0; }

    /**
     * Fraction of all samples (finite and infinite) whose value is
     * strictly greater than @p value. Infinite samples always count.
     */
    double survival(uint64_t value) const;

    /** Fraction of all samples with value <= @p value (finite only). */
    double cdf(uint64_t value) const { return 1.0 - survival(value); }

    /** Mean of the finite samples (bucket-midpoint approximation). */
    double meanFinite() const;

    /**
     * Smallest value v such that cdf(v) >= @p q (q in [0,1]); returns
     * kInfinity when the quantile falls into the infinite tail.
     */
    uint64_t quantile(double q) const;

    /**
     * Visit every non-empty bucket as (representative value, count).
     * Representative value is the bucket midpoint. The infinity bucket is
     * visited last with value kInfinity.
     */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        forEachBucket([&fn](size_t index, uint64_t count) {
            fn(bucketMid(index), count);
        });
        if (infinite_)
            fn(kInfinity, infinite_);
    }

    /** Visit every non-empty finite bucket as (bucket index, count), in
     *  ascending bucket order. */
    template <typename Fn>
    void
    forEachBucket(Fn &&fn) const
    {
        for (size_t k = 0; k < counts_.size(); ++k) {
            if (counts_[k])
                fn(bucketOfEntry(k), counts_[k]);
        }
    }

    /** Number of buckets (excluding the infinity bucket). */
    static constexpr size_t numBuckets() { return kTotalBuckets; }

    /** Lower bound (inclusive) of bucket @p index. */
    static uint64_t bucketLo(size_t index);

    /** Upper bound (inclusive) of bucket @p index. */
    static uint64_t bucketHi(size_t index);

    /** Midpoint of bucket @p index, used as its representative value. */
    static uint64_t bucketMid(size_t index);

    /** Bucket index for @p value. Inline: profiler hot path. */
    static size_t
    bucketIndex(uint64_t value)
    {
        if (value < kLinearMax)
            return static_cast<size_t>(value);
        const int log2 = 63 - std::countl_zero(value);
        // Sub-bucket within the [2^log2, 2^(log2+1)) decade.
        const uint64_t offset = value - (uint64_t{1} << log2);
        const uint64_t sub = (offset * kSubBuckets) >> log2;
        const size_t idx = kLinearMax +
            static_cast<size_t>(log2 - 4) * kSubBuckets +
            static_cast<size_t>(sub);
        return std::min(idx, kTotalBuckets - 1);
    }

  private:
    // Values 0..kLinearMax-1 get one bucket each; above that, each
    // power-of-two decade is split into kSubBuckets sub-buckets.
    static constexpr uint64_t kLinearMax = 16;
    static constexpr int kSubBuckets = 4;
    static constexpr int kMaxLog2 = 40; // reuse distances up to ~1.1e12
    static constexpr size_t kTotalBuckets =
        kLinearMax + static_cast<size_t>(kMaxLog2 - 4) * kSubBuckets;

    static_assert(kTotalBuckets <= 256, "bucket ids are stored in bytes");

    /** Bucket index of counts_[k] (entries of a frozen histogram are
     *  never zero; a dense one's zeros are empty buckets). */
    size_t bucketOfEntry(size_t k) const
    {
        return frozen_ ? static_cast<size_t>(buckets_[k]) : k;
    }

    /** add() of a finite sample to bucket @p idx when counts_ is not the
     *  full dense array: the first sample of a dense histogram, or an
     *  ordered insert into a frozen one. */
    void addSlow(size_t idx, uint64_t count);

    /** Dense: one counter per bucket (empty until the first finite
     *  sample). Frozen: one counter per non-empty bucket. */
    std::vector<uint64_t> counts_;
    /** Frozen only: bucket index of each counts_ entry, ascending. */
    std::vector<uint8_t> buckets_;
    uint64_t infinite_;
    uint64_t totalFinite_;
    bool frozen_ = false;
};

} // namespace rppm

#endif // RPPM_COMMON_HISTOGRAM_HH
