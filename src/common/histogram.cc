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
LogHistogram::merge(const LogHistogram &other)
{
    if (!other.counts_.empty()) {
        if (counts_.empty())
            counts_.assign(kTotalBuckets, 0);
        for (size_t i = 0; i < counts_.size(); ++i)
            counts_[i] += other.counts_[i];
    }
    infinite_ += other.infinite_;
    totalFinite_ += other.totalFinite_;
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
    for (size_t i = idx + 1; i < counts_.size(); ++i)
        above += counts_[i];
    // Within the containing bucket, interpolate linearly: assume samples
    // are spread uniformly across the bucket's value range.
    const uint64_t lo = bucketLo(idx);
    const uint64_t hi = bucketHi(idx);
    const double width = static_cast<double>(hi - lo) + 1.0;
    const double frac_above =
        static_cast<double>(hi - value) / width;
    const double partial = static_cast<double>(counts_[idx]) * frac_above;
    return (static_cast<double>(above) + partial) / static_cast<double>(tot);
}

double
LogHistogram::meanFinite() const
{
    if (totalFinite_ == 0)
        return 0.0;
    double sum = 0.0;
    for (size_t i = 0; i < counts_.size(); ++i) {
        if (counts_[i])
            sum += static_cast<double>(counts_[i]) *
                static_cast<double>(bucketMid(i));
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
    double running = 0.0;
    for (size_t i = 0; i < counts_.size(); ++i) {
        running += static_cast<double>(counts_[i]);
        if (running >= target && counts_[i] > 0)
            return bucketMid(i);
    }
    return kInfinity;
}

} // namespace rppm
