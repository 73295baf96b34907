#include "common/histogram.hh"

#include "common/assert.hh"

namespace rppm {

LogHistogram::LogHistogram() : infinite_(0), totalFinite_(0)
{
    // counts_ is allocated lazily on the first finite sample: profiles
    // hold many per-epoch histograms and most of them stay empty.
}

uint64_t
LogHistogram::bucketLo(size_t index)
{
    if (index < kLinearMax)
        return index;
    const size_t rel = index - kLinearMax;
    const int log2 = static_cast<int>(rel / kSubBuckets) + 4;
    const int sub = static_cast<int>(rel % kSubBuckets);
    return (uint64_t{1} << log2) +
        ((uint64_t{1} << log2) / kSubBuckets) * sub;
}

uint64_t
LogHistogram::bucketHi(size_t index)
{
    if (index < kLinearMax)
        return index;
    if (index + 1 >= kTotalBuckets)
        return std::numeric_limits<uint64_t>::max() - 1;
    return bucketLo(index + 1) - 1;
}

uint64_t
LogHistogram::bucketMid(size_t index)
{
    const uint64_t lo = bucketLo(index);
    const uint64_t hi = bucketHi(index);
    return lo + (hi - lo) / 2;
}

void
LogHistogram::addSlow(size_t idx, uint64_t count)
{
    if (!frozen_) {
        counts_.assign(kTotalBuckets, 0);
        counts_[idx] = count;
        return;
    }
    const uint8_t bucket = static_cast<uint8_t>(idx);
    const auto it = std::lower_bound(buckets_.begin(), buckets_.end(), bucket);
    const size_t k = static_cast<size_t>(it - buckets_.begin());
    if (it != buckets_.end() && *it == bucket) {
        counts_[k] += count;
        return;
    }
    buckets_.insert(it, bucket);
    counts_.insert(counts_.begin() + static_cast<std::ptrdiff_t>(k), count);
}

void
LogHistogram::merge(const LogHistogram &other)
{
    other.forEachBucket([this](size_t idx, uint64_t count) {
        if (counts_.size() == kTotalBuckets)
            counts_[idx] += count;
        else
            addSlow(idx, count);
    });
    infinite_ += other.infinite_;
    totalFinite_ += other.totalFinite_;
}

void
LogHistogram::freeze()
{
    if (frozen_) {
        counts_.shrink_to_fit();
        buckets_.shrink_to_fit();
        return;
    }
    const size_t n = nonEmptyBuckets();
    frozen_ = true;
    if (counts_.empty())
        return;
    std::vector<uint64_t> counts;
    counts.reserve(n);
    buckets_.reserve(n);
    for (size_t i = 0; i < kTotalBuckets; ++i) {
        if (counts_[i]) {
            counts.push_back(counts_[i]);
            buckets_.push_back(static_cast<uint8_t>(i));
        }
    }
    counts_ = std::move(counts);
}

void
LogHistogram::reserve(size_t buckets)
{
    if (!frozen_)
        return;
    counts_.reserve(buckets);
    buckets_.reserve(buckets);
}

size_t
LogHistogram::nonEmptyBuckets() const
{
    if (frozen_)
        return counts_.size();
    return static_cast<size_t>(std::count_if(
        counts_.begin(), counts_.end(), [](uint64_t c) { return c != 0; }));
}

double
LogHistogram::survival(uint64_t value) const
{
    const uint64_t tot = total();
    if (tot == 0)
        return 0.0;
    if (value == kInfinity)
        return 0.0;

    if (counts_.empty())
        return static_cast<double>(infinite_) / static_cast<double>(tot);

    const size_t idx = bucketIndex(value);
    uint64_t above = infinite_;
    uint64_t at = 0;
    forEachBucket([&](size_t i, uint64_t count) {
        if (i > idx)
            above += count;
        else if (i == idx)
            at = count;
    });
    // Within the containing bucket, interpolate linearly: assume samples
    // are spread uniformly across the bucket's value range.
    const uint64_t lo = bucketLo(idx);
    const uint64_t hi = bucketHi(idx);
    const double width = static_cast<double>(hi - lo) + 1.0;
    const double frac_above =
        static_cast<double>(hi - value) / width;
    const double partial = static_cast<double>(at) * frac_above;
    return (static_cast<double>(above) + partial) / static_cast<double>(tot);
}

double
LogHistogram::meanFinite() const
{
    if (totalFinite_ == 0)
        return 0.0;
    double sum = 0.0;
    for (size_t k = 0; k < counts_.size(); ++k) {
        if (counts_[k])
            sum += static_cast<double>(counts_[k]) *
                static_cast<double>(bucketMid(bucketOfEntry(k)));
    }
    return sum / static_cast<double>(totalFinite_);
}

uint64_t
LogHistogram::quantile(double q) const
{
    const uint64_t tot = total();
    if (tot == 0)
        return 0;
    q = std::clamp(q, 0.0, 1.0);
    const double target = q * static_cast<double>(tot);
    // Empty buckets add +0.0 to the running sum and cannot be returned,
    // so the frozen form's non-empty entries alone give the same answer.
    double running = 0.0;
    for (size_t k = 0; k < counts_.size(); ++k) {
        running += static_cast<double>(counts_[k]);
        if (running >= target && counts_[k] > 0)
            return bucketMid(bucketOfEntry(k));
    }
    return kInfinity;
}

} // namespace rppm
