#include "faults/fault_geometry.h"

#include <algorithm>
#include <cmath>
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

RowSet
FaultGeometrySampler::randomRows(unsigned count, uint32_t base,
                                 uint32_t span, Rng &rng) const
{
    count = std::min(count, span);
    std::vector<uint32_t> rows;
    rows.reserve(count);
    // Dense draws use a partial Fisher-Yates over the span; sparse draws
    // use rejection against the already-chosen set.
    if (count * 3 >= span) {
        std::vector<uint32_t> pool(span);
        for (uint32_t i = 0; i < span; ++i)
            pool[i] = base + i;
        for (unsigned i = 0; i < count; ++i) {
            const auto j = i + static_cast<uint32_t>(
                rng.uniformInt(span - i));
            std::swap(pool[i], pool[j]);
            rows.push_back(pool[i]);
        }
    } else {
        // One bit per row of the span marks the rows already chosen. The
        // sampler is shared by the trial threads, so each thread keeps
        // its own bitmap, all zero between calls: the chosen rows' bits
        // are cleared again on the way out.
        thread_local std::vector<uint64_t> chosen;
        if (chosen.size() * 64 < span)
            chosen.resize((span + 63) / 64);
        while (rows.size() < count) {
            const auto offset = static_cast<uint32_t>(rng.uniformInt(span));
            uint64_t &word = chosen[offset / 64];
            const uint64_t bit = uint64_t{1} << (offset % 64);
            if (word & bit)
                continue;
            word |= bit;
            rows.push_back(base + offset);
        }
        for (const uint32_t row : rows)
            chosen[(row - base) / 64] = 0;
    }
    return RowSet::of(std::move(rows));
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
