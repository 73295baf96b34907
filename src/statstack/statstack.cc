#include "statstack/statstack.hh"

#include <algorithm>
#include <span>

namespace rppm {

namespace {

/**
 * Geometry of the histogram's log buckets, evaluated once with exactly
 * the expressions LogHistogram::survival() and the prefix sums use, so
 * every stack reads the same doubles the per-bucket calls would produce.
 */
struct BucketTable
{
    std::array<uint64_t, StatStack::kBuckets> lo;
    std::array<uint64_t, StatStack::kBuckets> hi;
    std::array<double, StatStack::kBuckets> span;    ///< hi - lo + 1
    std::array<double, StatStack::kBuckets> width;   ///< (hi - lo) + 1.0
    std::array<double, StatStack::kBuckets> fracMid; ///< (hi - mid) / width
};

/** The immutable table; built on first use (thread-safe static). */
const BucketTable &
bucketTable()
{
    static const BucketTable table = [] {
        BucketTable t;
        for (size_t i = 0; i < StatStack::kBuckets; ++i) {
            const uint64_t lo = LogHistogram::bucketLo(i);
            const uint64_t hi = LogHistogram::bucketHi(i);
            const uint64_t mid = LogHistogram::bucketMid(i);
            t.lo[i] = lo;
            t.hi[i] = hi;
            t.span[i] = static_cast<double>(hi - lo + 1);
            t.width[i] = static_cast<double>(hi - lo) + 1.0;
            t.fracMid[i] = static_cast<double>(hi - mid) / t.width[i];
        }
        return t;
    }();
    return table;
}

} // namespace

StatStack::StatStack()
{
    suffixCounts_.fill(0);
    survivalPrefix_.fill(0.0);
}

StatStack::StatStack(const LogHistogram &reuse_distances)
    : total_(reuse_distances.total()),
      infinite_(reuse_distances.totalInfinite())
{
    const BucketTable &table = bucketTable();
    const std::span<const uint64_t> counts = reuse_distances.bucketCounts();

    // Suffix counts first: suffixCounts_[i] holds the infinite samples
    // plus every finite sample in buckets > i. This is the "samples
    // whose reuse extends past here" count that survival() would
    // otherwise re-accumulate per query. Integer sums are exact, so the
    // survival values derived from them are bit-identical to
    // LogHistogram::survival().
    uint64_t above = infinite_;
    if (counts.empty()) {
        suffixCounts_.fill(above);
    } else {
        for (size_t i = kBuckets; i-- > 0;) {
            suffixCounts_[i] = above;
            above += counts[i];
        }
    }

    // Precompute expected stack distance at each bucket boundary:
    //   sd(D) = sum_{j=1..D} survival(j).
    // Within a bucket the survival function is (piecewise) constant in
    // our representation, so the prefix sum advances linearly and can be
    // interpolated exactly on query. The representative survival of a
    // bucket is survival(bucketMid(i)).
    double prefix = 0.0;
    if (empty()) {
        // No finite samples: survival is the cold fraction everywhere
        // (zero for an empty histogram).
        const double surv = total_ == 0 ? 0.0 :
            static_cast<double>(infinite_) / static_cast<double>(total_);
        for (size_t i = 0; i < kBuckets; ++i) {
            prefix += surv * table.span[i];
            survivalPrefix_[i] = prefix;
        }
        return;
    }

    // An empty bucket adds +0.0 to its suffix count, which leaves the
    // quotient unchanged, and a run of empty buckets shares one suffix
    // count: one division per non-empty bucket and one per run of empty
    // ones. The prefix still accumulates bucket by bucket, in order.
    const double tot = static_cast<double>(total_);
    double run_surv = 0.0;
    bool in_run = false;
    for (size_t i = 0; i < kBuckets; ++i) {
        double surv;
        if (counts[i] != 0) {
            surv = (static_cast<double>(suffixCounts_[i]) +
                    static_cast<double>(counts[i]) * table.fracMid[i]) /
                tot;
            in_run = false;
        } else {
            if (!in_run) {
                run_surv = static_cast<double>(suffixCounts_[i]) / tot;
                in_run = true;
            }
            surv = run_surv;
        }
        prefix += surv * table.span[i];
        survivalPrefix_[i] = prefix;
    }
}

double
StatStack::survivalAtBucketMid(size_t idx) const
{
    // Mirrors LogHistogram::survival(bucketMid(idx)) branch for branch,
    // with the bucket scan replaced by the precomputed suffix counts.
    if (total_ == 0)
        return 0.0;
    if (empty())
        return static_cast<double>(infinite_) /
            static_cast<double>(total_);
    const double partial = static_cast<double>(countAt(idx)) *
        bucketTable().fracMid[idx];
    return (static_cast<double>(suffixCounts_[idx]) + partial) /
        static_cast<double>(total_);
}

double
StatStack::stackDistance(uint64_t rd) const
{
    if (rd == LogHistogram::kInfinity)
        return static_cast<double>(LogHistogram::kInfinity);
    if (total_ == 0)
        return static_cast<double>(rd);
    const size_t idx = LogHistogram::bucketIndex(rd);
    const uint64_t lo = bucketTable().lo[idx];
    const double below = idx > 0 ? survivalPrefix_[idx - 1] : 0.0;
    const double surv = survivalAtBucketMid(idx);
    return below + surv * static_cast<double>(rd - lo + 1);
}

uint64_t
StatStack::criticalReuseDistance(uint64_t cache_lines) const
{
    // Binary search over bucket boundaries for the first reuse distance
    // whose expected stack distance reaches cache_lines.
    const double target = static_cast<double>(cache_lines);
    size_t lo = 0, hi = kBuckets;
    while (lo < hi) {
        const size_t mid = (lo + hi) / 2;
        if (survivalPrefix_[mid] < target)
            lo = mid + 1;
        else
            hi = mid;
    }
    if (lo >= kBuckets)
        return LogHistogram::kInfinity;
    // Interpolate within the bucket.
    const BucketTable &table = bucketTable();
    const uint64_t blo = table.lo[lo];
    const uint64_t bhi = table.hi[lo];
    const double below = lo > 0 ? survivalPrefix_[lo - 1] : 0.0;
    const double surv = survivalAtBucketMid(lo);
    if (surv <= 0.0)
        return bhi;
    const double offset = (target - below) / surv;
    const uint64_t rd = blo + static_cast<uint64_t>(std::max(0.0, offset));
    return std::min(rd, bhi);
}

double
StatStack::missRate(uint64_t cache_lines) const
{
    if (total_ == 0)
        return 0.0;
    // An access misses when its expected stack distance exceeds the
    // cache's line count; cold accesses (infinite reuse distance) always
    // miss. The survival fraction past the critical reuse distance,
    // interpolated within its bucket, is the miss fraction.
    const uint64_t critical = criticalReuseDistance(cache_lines);
    if (critical == LogHistogram::kInfinity || empty()) {
        return static_cast<double>(infinite_) /
            static_cast<double>(total_);
    }
    // LogHistogram::survival(critical) from the suffix counts.
    const size_t idx = LogHistogram::bucketIndex(critical);
    const BucketTable &table = bucketTable();
    const double frac_above =
        static_cast<double>(table.hi[idx] - critical) / table.width[idx];
    const double partial = static_cast<double>(countAt(idx)) * frac_above;
    return (static_cast<double>(suffixCounts_[idx]) + partial) /
        static_cast<double>(total_);
}

} // namespace rppm
