/**
 * @file
 * Exact percentiles over raw integer samples (nanoseconds).
 *
 * Values below `kBins` land in one counter per nanosecond; larger values
 * are kept verbatim. Both are lossless, so every percentile is the exact
 * nearest-rank sample — never a histogram bucket edge — while memory
 * stays fixed for the millions of sub-65-microsecond samples a datapath
 * run produces.
 */

#ifndef PERFBENCH_QUANTILES_H
#define PERFBENCH_QUANTILES_H

#include <cstdint>
#include <vector>

namespace perfbench {

class Samples
{
  public:
    static constexpr uint64_t kBins = 1 << 16;

    void add(uint64_t value);

    /** Fold another sample set in (exact). */
    void merge(const Samples &other);

    uint64_t count() const { return count_; }

    /**
     * Nearest-rank percentile: the ceil(p/100 * n)-th smallest sample
     * (the smallest for p == 0). Returns 0 when empty.
     */
    uint64_t percentile(double p) const;

  private:
    std::vector<uint32_t> bins_;     ///< Allocated on first small value.
    std::vector<uint64_t> large_;    ///< Values >= kBins, unsorted.
    uint64_t count_ = 0;
};

/** Median (mean of the middle pair for even sizes; 0 when empty). */
double median(std::vector<double> values);

} // namespace perfbench

#endif // PERFBENCH_QUANTILES_H
