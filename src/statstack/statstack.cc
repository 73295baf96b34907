#include "statstack/statstack.hh"

#include <algorithm>
#include <bit>

#include "common/assert.hh"

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

StatStack::StatStack(const LogHistogram &reuse_distances)
    : total_(reuse_distances.total()),
      infinite_(reuse_distances.totalInfinite())
{
    const BucketTable &table = bucketTable();

    // Suffix counts first: a slot's suffix is the infinite samples plus
    // every finite sample in later buckets. This is the "samples whose
    // reuse extends past here" count that survival() would otherwise
    // re-accumulate per query. Integer sums are exact, so the survival
    // values derived from them are bit-identical to
    // LogHistogram::survival(). The counts park in the suffix field
    // until the backward pass turns them into suffixes.
    slots_.reserve(reuse_distances.nonEmptyBuckets());
    reuse_distances.forEachBucket([this](size_t idx, uint64_t count) {
        mask_[idx / 64] |= uint64_t{1} << (idx % 64);
        slots_.push_back(Slot{count, 0.0, 0.0});
    });
    uint64_t above = infinite_;
    for (size_t k = slots_.size(); k-- > 0;) {
        const uint64_t count = slots_[k].suffix;
        slots_[k].suffix = above;
        above += count;
    }

    // Precompute expected stack distance at each bucket boundary:
    //   sd(D) = sum_{j=1..D} survival(j).
    // Within a bucket the survival function is (piecewise) constant in
    // our representation, so the prefix sum advances linearly and can be
    // interpolated exactly on query. The representative survival of a
    // bucket is survival(bucketMid(i)). An empty bucket adds +0.0 to
    // its suffix count, which leaves the quotient unchanged, and a run
    // of empty buckets shares one suffix count: one division per
    // non-empty bucket and one per run of empty ones. The prefix still
    // accumulates bucket by bucket, in order; only the slots keep it.
    // The run after the last non-empty bucket is re-added on query.
    const double tot = static_cast<double>(total_);
    double prefix = 0.0;
    size_t next = 0; // first bucket not yet added
    size_t k = 0;
    for (size_t w = 0; w < mask_.size(); ++w) {
        for (uint64_t bits = mask_[w]; bits != 0; bits &= bits - 1, ++k) {
            const size_t idx =
                w * 64 + static_cast<size_t>(std::countr_zero(bits));
            if (next < idx) {
                const double run_surv = runSurvival(k);
                for (; next < idx; ++next)
                    prefix += run_surv * table.span[next];
            }
            Slot &slot = slots_[k];
            slot.before = prefix;
            const uint64_t count = suffixBefore(k) - slot.suffix;
            const double surv =
                (static_cast<double>(slot.suffix) +
                 static_cast<double>(count) * table.fracMid[idx]) /
                tot;
            prefix += surv * table.span[idx];
            slot.after = prefix;
            next = idx + 1;
        }
    }
}

size_t
StatStack::rank(size_t bucket) const
{
    size_t r = 0;
    for (size_t w = 0; w < bucket / 64; ++w)
        r += static_cast<size_t>(std::popcount(mask_[w]));
    const uint64_t below = (uint64_t{1} << (bucket % 64)) - 1;
    return r +
        static_cast<size_t>(std::popcount(mask_[bucket / 64] & below));
}

size_t
StatStack::bucketOf(size_t k) const
{
    for (size_t w = 0; w < mask_.size(); ++w) {
        uint64_t bits = mask_[w];
        const size_t n = static_cast<size_t>(std::popcount(bits));
        if (k >= n) {
            k -= n;
            continue;
        }
        for (; k > 0; --k)
            bits &= bits - 1;
        return w * 64 + static_cast<size_t>(std::countr_zero(bits));
    }
    RPPM_ASSERT(false);
    return kBuckets;
}

uint64_t
StatStack::suffixAt(size_t idx) const
{
    const size_t k = rank(idx);
    return present(idx) ? slots_[k].suffix : suffixBefore(k);
}

uint64_t
StatStack::countAt(size_t idx) const
{
    if (!present(idx))
        return 0;
    const size_t k = rank(idx);
    return suffixBefore(k) - slots_[k].suffix;
}

double
StatStack::runSurvival(size_t k) const
{
    // An all-empty histogram has survival zero everywhere.
    return total_ == 0 ? 0.0 :
        static_cast<double>(suffixBefore(k)) / static_cast<double>(total_);
}

double
StatStack::prefixThrough(size_t idx) const
{
    const size_t k = rank(idx);
    if (present(idx))
        return slots_[k].after;
    // Re-add the run of empty buckets from its start, in order.
    const BucketTable &table = bucketTable();
    double prefix = k == 0 ? 0.0 : slots_[k - 1].after;
    const double run_surv = runSurvival(k);
    for (size_t j = k == 0 ? 0 : bucketOf(k - 1) + 1; j <= idx; ++j)
        prefix += run_surv * table.span[j];
    return prefix;
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
    return (static_cast<double>(suffixAt(idx)) + partial) /
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
    // A sampled reuse distance lands in a non-empty bucket, whose slot
    // holds the prefix through the bucket below it.
    double below = 0.0;
    if (present(idx))
        below = slots_[rank(idx)].before;
    else if (idx > 0)
        below = prefixThrough(idx - 1);
    return below +
        survivalAtBucketMid(idx) * static_cast<double>(rd - lo + 1);
}

uint64_t
StatStack::criticalReuseDistance(uint64_t cache_lines) const
{
    // The first bucket whose survival prefix reaches cache_lines. The
    // prefix never decreases, so it is the bucket of the first slot
    // that reaches it, unless a bucket of the empty run before that
    // slot (or after the last slot) reaches it first.
    const double target = static_cast<double>(cache_lines);
    const BucketTable &table = bucketTable();
    const size_t k = static_cast<size_t>(
        std::partition_point(slots_.begin(), slots_.end(),
                             [target](const Slot &s) {
                                 return s.after < target;
                             }) -
        slots_.begin());
    size_t lo = kBuckets;
    double below = 0.0;
    double prefix = k == 0 ? 0.0 : slots_[k - 1].after;
    const double run_surv = runSurvival(k);
    // A run of zero survival adds +0.0 per bucket: it reaches the target
    // only if its start does.
    if ((k == slots_.size() || slots_[k].before >= target) &&
        (run_surv > 0.0 || prefix >= target)) {
        const size_t end = k == slots_.size() ? kBuckets : bucketOf(k);
        for (size_t j = k == 0 ? 0 : bucketOf(k - 1) + 1; j < end; ++j) {
            below = prefix;
            prefix += run_surv * table.span[j];
            if (prefix >= target) {
                lo = j;
                break;
            }
        }
    }
    if (lo == kBuckets) {
        if (k == slots_.size())
            return LogHistogram::kInfinity;
        lo = bucketOf(k);
        below = slots_[k].before;
    }
    // Interpolate within the bucket.
    const uint64_t blo = table.lo[lo];
    const uint64_t bhi = table.hi[lo];
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
    return (static_cast<double>(suffixAt(idx)) + partial) /
        static_cast<double>(total_);
}

} // namespace rppm
