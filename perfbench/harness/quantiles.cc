#include "quantiles.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

void
Samples::add(uint64_t value)
{
    ++count_;
    if (value >= kBins) {
        large_.push_back(value);
        return;
    }
    if (bins_.empty())
        bins_.assign(kBins, 0);
    ++bins_[value];
}

void
Samples::merge(const Samples &other)
{
    if (!other.bins_.empty()) {
        if (bins_.empty())
            bins_.assign(kBins, 0);
        for (uint64_t i = 0; i < kBins; ++i)
            bins_[i] += other.bins_[i];
    }
    large_.insert(large_.end(), other.large_.begin(), other.large_.end());
    count_ += other.count_;
}

uint64_t
Samples::percentile(double p) const
{
    if (count_ == 0)
        return 0;
    const double wanted = std::ceil(p / 100.0 * static_cast<double>(count_));
    const uint64_t rank = std::clamp<uint64_t>(
        static_cast<uint64_t>(std::max(wanted, 1.0)), 1, count_);
    uint64_t seen = 0;
    for (uint64_t value = 0; value < bins_.size(); ++value) {
        seen += bins_[value];
        if (seen >= rank)
            return value;
    }
    std::vector<uint64_t> large = large_;
    const auto nth = large.begin() + static_cast<long>(rank - seen - 1);
    std::nth_element(large.begin(), nth, large.end());
    return *nth;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

} // namespace perfbench
