/**
 * @file
 * Log-bucketed histogram used throughout the profiler.
 *
 * Reuse-distance and dependence-distance distributions span many orders of
 * magnitude, so the profiler stores them in logarithmically spaced buckets:
 * a handful of linear buckets for small values followed by sub-divided
 * power-of-two buckets. This keeps each per-epoch profile to a few hundred
 * bytes while retaining enough resolution for StatStack's conversion.
 */

#ifndef RPPM_COMMON_HISTOGRAM_HH
#define RPPM_COMMON_HISTOGRAM_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
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
        if (counts_.empty())
            counts_.resize(kTotalBuckets);
        counts_[bucketIndex(value)] += count;
        totalFinite_ += count;
    }

    /** Merge another histogram into this one. */
    void merge(const LogHistogram &other);

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
        for (size_t i = 0; i < counts_.size(); ++i) {
            if (counts_[i])
                fn(bucketMid(i), counts_[i]);
        }
        if (infinite_)
            fn(kInfinity, infinite_);
    }

    /** Per-bucket finite sample counts, indexed like bucketIndex();
     *  empty until the first finite sample is recorded. */
    std::span<const uint64_t> bucketCounts() const { return counts_; }

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

    std::vector<uint64_t> counts_;
    uint64_t infinite_;
    uint64_t totalFinite_;
};

} // namespace rppm

#endif // RPPM_COMMON_HISTOGRAM_HH
