#include "faults/fault_geometry.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>
#include <vector>

namespace relaxfault {

FaultGeometrySampler::FaultGeometrySampler(const DramGeometry &geometry,
                                           const FaultGeometryParams &params)
    : geometry_(geometry), params_(params)
{
}

unsigned
FaultGeometrySampler::geometricCount(double mean, Rng &rng) const
{
    if (mean <= 1.0)
        return 1;
    // Geometric on {1, 2, ...} with the requested mean.
    const double p = 1.0 / mean;
    const double u = rng.uniform();
    const auto count = static_cast<unsigned>(
        1.0 + std::floor(std::log(1.0 - u) / std::log(1.0 - p)));
    return std::max(1u, count);
}

namespace {

/**
 * randomRows' per-thread scratch, all zero between calls: one bit per
 * row of the span marks the rows drawn so far, and one summary bit per
 * bitmap word marks the words holding any, so the read-out visits only
 * those words. The sampler is shared by the trial threads, so each
 * thread keeps its own.
 */
struct RowMarks
{
    std::vector<uint64_t> bits;
    std::vector<uint64_t> summary;

    /** Mark @p offset; false if it was already marked. */
    bool mark(uint32_t offset)
    {
        uint64_t &word = bits[offset / 64];
        const uint64_t bit = uint64_t{1} << (offset % 64);
        if (word & bit)
            return false;
        word |= bit;
        summary[offset / 4096] |= uint64_t{1} << (offset / 64 % 64);
        return true;
    }
};

} // namespace

RowSet
FaultGeometrySampler::randomRows(unsigned count, uint32_t base,
                                 uint32_t span, Rng &rng) const
{
    count = std::min(count, span);
    thread_local RowMarks marks;
    const size_t words = (size_t{span} + 63) / 64;
    const size_t summary_words = (words + 63) / 64;
    if (marks.bits.size() < words) {
        marks.bits.resize(words);
        marks.summary.resize(summary_words);
    }
    // Dense draws use a partial Fisher-Yates over the span; sparse draws
    // use rejection against the rows already marked.
    if (count * 3 >= span) {
        std::vector<uint32_t> pool(span);
        for (uint32_t i = 0; i < span; ++i)
            pool[i] = i;
        for (unsigned i = 0; i < count; ++i) {
            const auto j = i + static_cast<uint32_t>(
                rng.uniformInt(span - i));
            std::swap(pool[i], pool[j]);
            marks.mark(pool[i]);
        }
    } else {
        for (unsigned drawn = 0; drawn < count;) {
            if (marks.mark(static_cast<uint32_t>(rng.uniformInt(span))))
                ++drawn;
        }
    }

    // Read the marked rows out in ascending order, clearing as we go:
    // the set is sorted and unique by construction. A summary bit is set
    // exactly when its bitmap word is non-zero.
    RowSet set;
    set.rows.reserve(count);
    for (size_t s = 0; s < summary_words; ++s) {
        uint64_t summary = std::exchange(marks.summary[s], 0);
        while (summary != 0) {
            const size_t w = s * 64 + std::countr_zero(summary);
            summary &= summary - 1;
            uint64_t word = std::exchange(marks.bits[w], 0);
            do {
                set.rows.push_back(base + static_cast<uint32_t>(
                    w * 64 + std::countr_zero(word)));
                word &= word - 1;
            } while (word != 0);
        }
    }
    return set;
}

RegionCluster
FaultGeometrySampler::bankExtent(unsigned bank, Rng &rng) const
{
    RegionCluster cluster;
    cluster.bankMask = 1u << bank;
    cluster.cols = ColSet::allCols();
    cluster.bitMask = 0xffffffffu;

    const double u = rng.uniform();
    if (u < params_.bankSmallProb) {
        // A few wordlines within one subarray (local decoder glitch).
        const unsigned count =
            geometricCount(params_.bankSmallRowsMean, rng);
        const uint32_t subarrays = geometry_.rowsPerBank /
                                   params_.subarrayRows;
        const uint32_t base = static_cast<uint32_t>(
            rng.uniformInt(subarrays)) * params_.subarrayRows;
        cluster.rows = randomRows(count, base, params_.subarrayRows, rng);
    } else if (u < params_.bankSmallProb + params_.bankMediumProb) {
        const auto count = static_cast<unsigned>(rng.uniformRange(
            params_.bankMediumRowsMin, params_.bankMediumRowsMax));
        cluster.rows = randomRows(count, 0, geometry_.rowsPerBank, rng);
    } else {
        cluster.rows = RowSet::allRows();
    }
    return cluster;
}

FaultRegion
FaultGeometrySampler::sampleSingleBit(Rng &rng) const
{
    RegionCluster cluster;
    cluster.bankMask = 1u << rng.uniformInt(geometry_.banksPerDevice);
    cluster.rows = RowSet::of({static_cast<uint32_t>(
        rng.uniformInt(geometry_.rowsPerBank))});
    cluster.cols = ColSet::of({static_cast<uint16_t>(
        rng.uniformInt(geometry_.colBlocksPerRow))});
    const unsigned bit = static_cast<unsigned>(rng.uniformInt(32));
    if (rng.bernoulli(params_.wordFaultProb)) {
        // Word fault: a handful of adjacent bits in the same slice.
        const unsigned width = 2 + static_cast<unsigned>(rng.uniformInt(7));
        const unsigned lsb = std::min(bit, 32u - width);
        cluster.bitMask = static_cast<uint32_t>(maskBits(width)) << lsb;
    } else {
        cluster.bitMask = 1u << bit;
    }
    return FaultRegion({cluster});
}

FaultRegion
FaultGeometrySampler::sampleSingleRow(Rng &rng) const
{
    RegionCluster cluster;
    cluster.bankMask = 1u << rng.uniformInt(geometry_.banksPerDevice);
    cluster.rows = RowSet::of({static_cast<uint32_t>(
        rng.uniformInt(geometry_.rowsPerBank))});
    cluster.cols = ColSet::allCols();
    cluster.bitMask = 0xffffffffu;
    return FaultRegion({cluster});
}

FaultRegion
FaultGeometrySampler::sampleSingleColumn(Rng &rng) const
{
    // One bitline within one subarray: a single bit lane of a single
    // column block goes bad in some of the subarray's rows.
    RegionCluster cluster;
    cluster.bankMask = 1u << rng.uniformInt(geometry_.banksPerDevice);
    const uint32_t subarrays = geometry_.rowsPerBank / params_.subarrayRows;
    const uint32_t base = static_cast<uint32_t>(
        rng.uniformInt(subarrays)) * params_.subarrayRows;
    const unsigned count = std::min<unsigned>(
        geometricCount(params_.columnRowsMean, rng), params_.subarrayRows);
    cluster.rows = randomRows(count, base, params_.subarrayRows, rng);
    cluster.cols = ColSet::of({static_cast<uint16_t>(
        rng.uniformInt(geometry_.colBlocksPerRow))});
    cluster.bitMask = 1u << rng.uniformInt(32);
    return FaultRegion({cluster});
}

FaultRegion
FaultGeometrySampler::sampleSingleBank(Rng &rng) const
{
    const auto bank = static_cast<unsigned>(
        rng.uniformInt(geometry_.banksPerDevice));
    return FaultRegion({bankExtent(bank, rng)});
}

FaultRegion
FaultGeometrySampler::sampleMultiBank(Rng &rng) const
{
    const unsigned max_banks =
        std::min(params_.multiBankMax, geometry_.banksPerDevice);
    const auto bank_count = static_cast<unsigned>(rng.uniformRange(
        params_.multiBankMin, max_banks));

    // Choose distinct banks.
    std::vector<unsigned> banks(geometry_.banksPerDevice);
    for (unsigned i = 0; i < banks.size(); ++i)
        banks[i] = i;
    std::vector<RegionCluster> clusters;
    for (unsigned i = 0; i < bank_count; ++i) {
        const auto j = i + static_cast<unsigned>(
            rng.uniformInt(banks.size() - i));
        std::swap(banks[i], banks[j]);
        RegionCluster cluster;
        if (rng.bernoulli(params_.multiBankMassiveProb)) {
            cluster.bankMask = 1u << banks[i];
            cluster.rows = RowSet::allRows();
            cluster.cols = ColSet::allCols();
            cluster.bitMask = 0xffffffffu;
        } else {
            cluster = bankExtent(banks[i], rng);
        }
        clusters.push_back(std::move(cluster));
    }
    return FaultRegion(std::move(clusters));
}

FaultRegion
FaultGeometrySampler::sampleMultiRank(Rng &rng) const
{
    if (rng.bernoulli(params_.multiRankMassiveProb)) {
        // Data-pin / shared-I/O fault: one bit lane of every access.
        RegionCluster cluster;
        cluster.bankMask = static_cast<uint32_t>(
            maskBits(geometry_.banksPerDevice));
        cluster.rows = RowSet::allRows();
        cluster.cols = ColSet::allCols();
        cluster.bitMask = 1u << rng.uniformInt(32);
        return FaultRegion({cluster});
    }
    // Control glitch: a few rows in each bank.
    std::vector<RegionCluster> clusters;
    for (unsigned bank = 0; bank < geometry_.banksPerDevice; ++bank) {
        RegionCluster cluster;
        cluster.bankMask = 1u << bank;
        const unsigned count =
            geometricCount(params_.multiRankRowsMean, rng);
        cluster.rows = randomRows(count, 0, geometry_.rowsPerBank, rng);
        cluster.cols = ColSet::allCols();
        cluster.bitMask = 0xffffffffu;
        clusters.push_back(std::move(cluster));
    }
    return FaultRegion(std::move(clusters));
}

FaultRegion
FaultGeometrySampler::sample(FaultMode mode, Rng &rng) const
{
    switch (mode) {
      case FaultMode::SingleBit:
        return sampleSingleBit(rng);
      case FaultMode::SingleRow:
        return sampleSingleRow(rng);
      case FaultMode::SingleColumn:
        return sampleSingleColumn(rng);
      case FaultMode::SingleBank:
        return sampleSingleBank(rng);
      case FaultMode::MultiBank:
        return sampleMultiBank(rng);
      case FaultMode::MultiRank:
        return sampleMultiRank(rng);
    }
    return FaultRegion();
}

} // namespace relaxfault
