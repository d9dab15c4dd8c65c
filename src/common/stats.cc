#include "common/stats.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"

namespace duplex
{

void
SampleStats::add(double v)
{
    samples_.push_back(v);
    sum_ += v;
    sorted_ = false;
}

void
SampleStats::reserve(std::size_t n)
{
    samples_.reserve(n);
}

void
SampleStats::merge(const SampleStats &other)
{
    if (other.samples_.empty())
        return;
    // No exact reserve: insert grows the capacity geometrically, so
    // folding N sample sets copies O(total), not O(N x total).
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    sum_ += other.sum_;
    sorted_ = false;
}

double
SampleStats::mean() const
{
    if (samples_.empty())
        return 0.0;
    return sum_ / static_cast<double>(samples_.size());
}

void
SampleStats::ensureSorted() const
{
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
}

double
SampleStats::min() const
{
    if (samples_.empty())
        return 0.0;
    ensureSorted();
    return samples_.front();
}

double
SampleStats::max() const
{
    if (samples_.empty())
        return 0.0;
    ensureSorted();
    return samples_.back();
}

double
SampleStats::percentile(double p) const
{
    panicIf(p < 0.0 || p > 100.0, "percentile: p out of [0, 100]");
    if (samples_.empty())
        return 0.0;
    ensureSorted();
    if (samples_.size() == 1)
        return samples_[0];
    const double rank =
        p / 100.0 * static_cast<double>(samples_.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const auto hi = static_cast<std::size_t>(std::ceil(rank));
    const double frac = rank - std::floor(rank);
    return samples_[lo] + (samples_[hi] - samples_[lo]) * frac;
}

double
SampleStats::fractionAtMost(double v) const
{
    if (samples_.empty())
        return 1.0;
    ensureSorted();
    const auto at_most = std::upper_bound(samples_.begin(),
                                          samples_.end(), v) -
                         samples_.begin();
    return static_cast<double>(at_most) /
           static_cast<double>(samples_.size());
}

void
SampleStats::clear()
{
    samples_.clear();
    sum_ = 0.0;
    sorted_ = true;
}

BoundedStats::BoundedStats(BoundedSpec spec)
    : spec_(spec),
      binWidth_(spec.maxValue / std::max(1, spec.bins)),
      counts_(static_cast<std::size_t>(std::max(1, spec.bins)) + 1,
              0)
{
    fatalIf(spec.maxValue <= 0.0 || spec.bins <= 0,
            "BoundedStats: maxValue and bins must be positive");
}

void
BoundedStats::add(double v)
{
    if (count_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++count_;
    sum_ += v;
    std::size_t bin;
    if (v < 0.0) {
        bin = 0;
    } else if (v >= spec_.maxValue) {
        bin = counts_.size() - 1; // overflow slot
    } else {
        bin = static_cast<std::size_t>(v / binWidth_);
        if (bin >= counts_.size() - 1)
            bin = counts_.size() - 2;
    }
    ++counts_[bin];
}

double
BoundedStats::mean() const
{
    if (count_ == 0)
        return 0.0;
    return sum_ / static_cast<double>(count_);
}

double
BoundedStats::min() const
{
    return count_ == 0 ? 0.0 : min_;
}

double
BoundedStats::max() const
{
    return count_ == 0 ? 0.0 : max_;
}

double
BoundedStats::percentile(double p) const
{
    panicIf(p < 0.0 || p > 100.0, "percentile: p out of [0, 100]");
    if (count_ == 0)
        return 0.0;
    // The rank convention matches SampleStats (0-based order
    // statistics); the value inside the owning bin is interpolated
    // from the rank's position among that bin's samples.
    const double rank =
        p / 100.0 * static_cast<double>(count_ - 1);
    std::int64_t seen = 0;
    for (std::size_t b = 0; b < counts_.size(); ++b) {
        if (counts_[b] == 0)
            continue;
        const double first = static_cast<double>(seen);
        const double last =
            static_cast<double>(seen + counts_[b] - 1);
        if (rank <= last) {
            if (b == counts_.size() - 1)
                return max_; // overflow bin: report the exact max
            const double lo = static_cast<double>(b) * binWidth_;
            const double hi = lo + binWidth_;
            const double span =
                static_cast<double>(counts_[b]);
            const double frac = span <= 1.0
                                    ? 0.5
                                    : (rank - first) / (span - 1.0);
            const double v = lo + frac * (hi - lo);
            // Never report outside the exact observed range.
            return std::clamp(v, min_, max_);
        }
        seen += counts_[b];
    }
    return max_;
}

double
BoundedStats::fractionAtMost(double v) const
{
    if (count_ == 0)
        return 1.0;
    if (v >= max_)
        return 1.0;
    if (v < min_)
        return 0.0;
    std::int64_t at_most = 0;
    if (v >= spec_.maxValue) {
        // Threshold inside the overflow bin: every regular-bin
        // sample is <= v; interpolate the overflow samples across
        // their exact range [maxValue, max_].
        for (std::size_t b = 0; b + 1 < counts_.size(); ++b)
            at_most += counts_[b];
        const double span = max_ - spec_.maxValue;
        const double frac =
            span > 0.0 ? (v - spec_.maxValue) / span : 1.0;
        at_most += static_cast<std::int64_t>(
            frac * static_cast<double>(counts_.back()));
        return static_cast<double>(at_most) /
               static_cast<double>(count_);
    }
    const std::size_t full_bins =
        static_cast<std::size_t>(v / binWidth_);
    for (std::size_t b = 0; b < full_bins; ++b)
        at_most += counts_[b];
    // Partial credit inside the boundary bin.
    const double lo = static_cast<double>(full_bins) * binWidth_;
    const double frac = (v - lo) / binWidth_;
    at_most += static_cast<std::int64_t>(
        frac * static_cast<double>(counts_[full_bins]));
    return static_cast<double>(at_most) /
           static_cast<double>(count_);
}

} // namespace duplex
