/**
 * @file
 * Tests for the fault model: regions and their algebra, FIT rates, the
 * extent samplers, the population sampler with acceleration (Eq. 1), and
 * the fault-set probe.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "faults/fault_model.h"
#include "faults/fault_set.h"
#include "faults/rates.h"

namespace relaxfault {
namespace {

DramGeometry
geom()
{
    return DramGeometry{};
}

FaultRegion
bitRegion(unsigned bank, uint32_t row, uint16_t col, uint32_t mask)
{
    RegionCluster cluster;
    cluster.bankMask = 1u << bank;
    cluster.rows = RowSet::of({row});
    cluster.cols = ColSet::of({col});
    cluster.bitMask = mask;
    return FaultRegion({cluster});
}

TEST(RowSet, CountContainsIntersect)
{
    const RowSet a = RowSet::of({5, 1, 3, 3});
    EXPECT_EQ(a.count(geom()), 3u);
    EXPECT_TRUE(a.contains(3));
    EXPECT_FALSE(a.contains(2));
    const RowSet b = RowSet::of({3, 4, 5});
    EXPECT_EQ(RowSet::intersectCount(a, b, geom()), 2u);
    const RowSet all = RowSet::allRows();
    EXPECT_EQ(RowSet::intersectCount(all, b, geom()), 3u);
    EXPECT_EQ(all.count(geom()), geom().rowsPerBank);
}

TEST(ColSet, CountContainsIntersect)
{
    const ColSet a = ColSet::of({7});
    const ColSet b = ColSet::allCols();
    EXPECT_EQ(ColSet::intersectCount(a, b, geom()), 1u);
    EXPECT_TRUE(b.contains(200));
    EXPECT_FALSE(a.contains(6));
}

TEST(Region, SingleBitCounts)
{
    const FaultRegion region = bitRegion(2, 100, 50, 1u << 9);
    EXPECT_EQ(region.lineSliceCount(geom()), 1u);
    EXPECT_EQ(region.remapUnitCount(geom()), 1u);
    EXPECT_FALSE(region.massive());
    EXPECT_EQ(region.sliceMask(2, 100, 50), 1u << 9);
    EXPECT_EQ(region.sliceMask(2, 100, 51), 0u);
    EXPECT_EQ(region.sliceMask(3, 100, 50), 0u);
    EXPECT_DOUBLE_EQ(region.symbolFraction(), 0.25);
}

TEST(Region, FullRowCounts)
{
    RegionCluster cluster;
    cluster.bankMask = 1u << 1;
    cluster.rows = RowSet::of({77});
    cluster.cols = ColSet::allCols();
    const FaultRegion region({cluster});
    // 256 column blocks; 16 blocks per 64B remap unit -> 16 units.
    EXPECT_EQ(region.lineSliceCount(geom()), 256u);
    EXPECT_EQ(region.remapUnitCount(geom()), 16u);
    EXPECT_DOUBLE_EQ(region.symbolFraction(), 1.0);
}

TEST(Region, ColumnCounts)
{
    RegionCluster cluster;
    cluster.bankMask = 1u << 0;
    cluster.rows = RowSet::of({10, 20, 30, 40});
    cluster.cols = ColSet::of({100});
    cluster.bitMask = 1u << 3;
    const FaultRegion region({cluster});
    EXPECT_EQ(region.lineSliceCount(geom()), 4u);
    EXPECT_EQ(region.remapUnitCount(geom()), 4u);
    EXPECT_EQ(region.distinctRowCount(geom()), 4u);
}

TEST(Region, MassiveBank)
{
    RegionCluster cluster;
    cluster.bankMask = 1u << 4;
    cluster.rows = RowSet::allRows();
    cluster.cols = ColSet::allCols();
    const FaultRegion region({cluster});
    EXPECT_TRUE(region.massive());
    EXPECT_EQ(region.lineSliceCount(geom()),
              uint64_t{geom().rowsPerBank} * geom().colBlocksPerRow);
    EXPECT_EQ(region.bankCount(), 1u);
}

TEST(Region, RemapUnitsGroupColumns)
{
    // Columns 0 and 15 share remap unit 0; column 16 is unit 1.
    RegionCluster cluster;
    cluster.bankMask = 1;
    cluster.rows = RowSet::of({1});
    cluster.cols = ColSet::of({0, 15, 16});
    const FaultRegion region({cluster});
    EXPECT_EQ(region.lineSliceCount(geom()), 3u);
    EXPECT_EQ(region.remapUnitCount(geom()), 2u);
}

TEST(Region, ForEachSliceVisitsAll)
{
    RegionCluster cluster;
    cluster.bankMask = (1u << 1) | (1u << 3);
    cluster.rows = RowSet::of({5, 6});
    cluster.cols = ColSet::of({9});
    const FaultRegion region({cluster});
    unsigned visits = 0;
    region.forEachSlice(geom(), [&](unsigned bank, uint32_t row,
                                    uint16_t col) {
        EXPECT_TRUE(bank == 1 || bank == 3);
        EXPECT_TRUE(row == 5 || row == 6);
        EXPECT_EQ(col, 9);
        ++visits;
    });
    EXPECT_EQ(visits, 4u);
}

FaultRegion
twoClusterRegion()
{
    // 2 banks x 3 rows x 40 columns (4 column groups), then 1 bank x 2
    // rows x 2 columns (2 groups): 240 + 4 slices, 24 + 4 remap units.
    RegionCluster a;
    a.bankMask = (1u << 1) | (1u << 6);
    a.rows = RowSet::of({7, 8, 900});
    std::vector<uint16_t> cols;
    for (uint16_t col = 10; col < 50; ++col)
        cols.push_back(col);
    a.cols = ColSet::of(std::move(cols));
    RegionCluster b;
    b.bankMask = 1u << 3;
    b.rows = RowSet::of({1, 2});
    b.cols = ColSet::of({0, 255});
    return FaultRegion({a, b});
}

TEST(Region, BoolVisitorStopsTheSliceWalk)
{
    const FaultRegion region = twoClusterRegion();
    const uint64_t total = region.lineSliceCount(geom());
    ASSERT_EQ(total, 244u);
    // Stopping on every call k, including the first cluster's last slice
    // and the very last slice, ends the walk right there.
    for (uint64_t k = 1; k <= total; ++k) {
        uint64_t calls = 0;
        const bool done = region.forEachSlice(
            geom(), [&](unsigned, uint32_t, uint16_t) {
                return ++calls != k;
            });
        ASSERT_FALSE(done) << k;
        ASSERT_EQ(calls, k);
    }
    uint64_t calls = 0;
    EXPECT_TRUE(region.forEachSlice(
        geom(), [&](unsigned, uint32_t, uint16_t) { return ++calls > 0; }));
    EXPECT_EQ(calls, total);
}

TEST(Region, BoolVisitorStopsTheRemapUnitWalk)
{
    const FaultRegion region = twoClusterRegion();
    const uint64_t total = region.remapUnitCount(geom());
    ASSERT_EQ(total, 28u);
    for (uint64_t k = 1; k <= total; ++k) {
        uint64_t calls = 0;
        const bool done = region.forEachRemapUnit(
            geom(), [&](unsigned, uint32_t, uint16_t) {
                return ++calls != k;
            });
        ASSERT_FALSE(done) << k;
        ASSERT_EQ(calls, k);
    }
}

TEST(Region, VoidVisitorSeesEveryUnit)
{
    const FaultRegion region = twoClusterRegion();
    uint64_t slices = 0, units = 0;
    EXPECT_TRUE(region.forEachSlice(
        geom(), [&](unsigned, uint32_t, uint16_t) { ++slices; }));
    EXPECT_TRUE(region.forEachRemapUnit(
        geom(), [&](unsigned, uint32_t, uint16_t) { ++units; }));
    EXPECT_EQ(slices, region.lineSliceCount(geom()));
    EXPECT_EQ(units, region.remapUnitCount(geom()));
}

TEST(Region, PairIntersection)
{
    const FaultRegion a = bitRegion(2, 100, 50, 0xff);
    const FaultRegion b = bitRegion(2, 100, 50, 0xff00);
    const FaultRegion c = bitRegion(2, 101, 50, 0xff);
    EXPECT_EQ(FaultRegion::intersectLineCount(a, b, geom()), 1u);
    EXPECT_EQ(FaultRegion::intersectLineCount(a, c, geom()), 0u);
}

TEST(Region, SharesSymbol)
{
    EXPECT_TRUE(FaultRegion::sharesSymbol(0x1, 0x80));     // Symbol 0.
    EXPECT_FALSE(FaultRegion::sharesSymbol(0x1, 0x100));   // 0 vs 1.
    EXPECT_TRUE(FaultRegion::sharesSymbol(0xffffffff, 0x01000000));
}

TEST(Region, CodewordIntersectRespectsSymbols)
{
    // Same slice, but disjoint symbols: no codeword-level overlap.
    const FaultRegion a = bitRegion(1, 10, 10, 0x000000ff);
    const FaultRegion b = bitRegion(1, 10, 10, 0x0000ff00);
    const FaultRegion c = bitRegion(1, 10, 10, 0x000000f0);
    EXPECT_EQ(FaultRegion::codewordIntersect(a, b, geom())
                  .lineSliceCount(geom()),
              0u);
    EXPECT_EQ(FaultRegion::codewordIntersect(a, c, geom())
                  .lineSliceCount(geom()),
              1u);
}

TEST(Region, CodewordIntersectComposesForTriples)
{
    // Bank fault (full mask) intersected with two single-bit faults in
    // the same line and symbol: triple overlap survives composition.
    RegionCluster bank_cluster;
    bank_cluster.bankMask = 1u << 2;
    bank_cluster.rows = RowSet::of({100});
    bank_cluster.cols = ColSet::allCols();
    const FaultRegion bank_fault({bank_cluster});
    const FaultRegion bit1 = bitRegion(2, 100, 50, 0x1);
    const FaultRegion bit2 = bitRegion(2, 100, 50, 0x2);
    const FaultRegion pair =
        FaultRegion::codewordIntersect(bank_fault, bit1, geom());
    EXPECT_EQ(pair.lineSliceCount(geom()), 1u);
    const FaultRegion triple =
        FaultRegion::codewordIntersect(pair, bit2, geom());
    EXPECT_EQ(triple.lineSliceCount(geom()), 1u);

    // A third fault in a different symbol breaks the chain.
    const FaultRegion other_symbol = bitRegion(2, 100, 50, 0x100);
    EXPECT_EQ(FaultRegion::codewordIntersect(pair, other_symbol, geom())
                  .lineSliceCount(geom()),
              0u);
}

TEST(Rates, CieloTotalsMatchTable2)
{
    const FitRates rates = FitRates::cielo();
    EXPECT_NEAR(rates.totalTransient(), 20.3, 1e-9);
    EXPECT_NEAR(rates.totalPermanent(), 20.0, 1e-9);
    EXPECT_DOUBLE_EQ(rates.permanent(FaultMode::SingleBit), 13.0);
    EXPECT_DOUBLE_EQ(rates.transient(FaultMode::MultiRank), 0.2);
}

TEST(Rates, ModeNames)
{
    EXPECT_STREQ(faultModeName(FaultMode::SingleRow), "single-row");
    EXPECT_STREQ(faultModeName(FaultMode::MultiBank), "multi-bank");
}

class GeometrySamplerTest : public ::testing::Test
{
  protected:
    DramGeometry geometry_;
    FaultGeometryParams params_;
    FaultGeometrySampler sampler_{geometry_, params_};
    Rng rng_{2024};
};

TEST_F(GeometrySamplerTest, SingleBitIsOneSlice)
{
    for (int i = 0; i < 200; ++i) {
        const FaultRegion region =
            sampler_.sample(FaultMode::SingleBit, rng_);
        EXPECT_EQ(region.lineSliceCount(geometry_), 1u);
        EXPECT_FALSE(region.massive());
    }
}

TEST_F(GeometrySamplerTest, SingleRowIsFullRow)
{
    for (int i = 0; i < 100; ++i) {
        const FaultRegion region =
            sampler_.sample(FaultMode::SingleRow, rng_);
        EXPECT_EQ(region.lineSliceCount(geometry_), 256u);
        EXPECT_EQ(region.remapUnitCount(geometry_), 16u);
    }
}

TEST_F(GeometrySamplerTest, ColumnStaysInOneSubarray)
{
    for (int i = 0; i < 200; ++i) {
        const FaultRegion region =
            sampler_.sample(FaultMode::SingleColumn, rng_);
        ASSERT_EQ(region.clusters().size(), 1u);
        const auto &cluster = region.clusters()[0];
        ASSERT_FALSE(cluster.rows.all);
        ASSERT_FALSE(cluster.rows.rows.empty());
        const uint32_t base =
            cluster.rows.rows.front() / params_.subarrayRows;
        for (const auto row : cluster.rows.rows)
            EXPECT_EQ(row / params_.subarrayRows, base);
        EXPECT_LE(cluster.rows.rows.size(), params_.subarrayRows);
        EXPECT_EQ(cluster.cols.cols.size(), 1u);
    }
}

TEST_F(GeometrySamplerTest, ColumnRowCountMeanRoughlyCalibrated)
{
    RunningStat stat;
    for (int i = 0; i < 4000; ++i) {
        const FaultRegion region =
            sampler_.sample(FaultMode::SingleColumn, rng_);
        stat.add(static_cast<double>(
            region.clusters()[0].rows.rows.size()));
    }
    // Geometric with the configured mean, truncated by the subarray
    // size and by duplicate draws; allow a generous band.
    EXPECT_GT(stat.mean(), 0.55 * params_.columnRowsMean);
    EXPECT_LT(stat.mean(), 1.15 * params_.columnRowsMean);
}

/**
 * randomRows as it was before it sorted by construction: the same draws
 * on both paths, the rows collected in draw order, then sorted by
 * RowSet::of.
 */
RowSet
sortedDrawRows(unsigned count, uint32_t base, uint32_t span, Rng &rng)
{
    count = std::min(count, span);
    std::vector<uint32_t> rows;
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
        while (rows.size() < count) {
            const auto row =
                base + static_cast<uint32_t>(rng.uniformInt(span));
            if (std::find(rows.begin(), rows.end(), row) == rows.end())
                rows.push_back(row);
        }
    }
    return RowSet::of(std::move(rows));
}

TEST_F(GeometrySamplerTest, RandomRowsMatchSortedDraws)
{
    // Fixed shapes: both paths, zero and non-zero bases, spans that are
    // not a multiple of 64 (or of 4,096, one summary word), count 1 and
    // count >= span. Then random shapes, with large and small spans
    // interleaved so a bitmap left dirty by one call shows in the next.
    struct Shape
    {
        unsigned count;
        uint32_t base;
        uint32_t span;
    };
    std::vector<Shape> shapes = {
        {1, 0, 65536},      {1, 4096, 512},     {1, 7, 1},
        {192, 0, 65536},    {320, 0, 65536},    {4, 123456, 65536},
        {90, 512 * 9, 512}, {171, 512, 512},    {400, 1024, 512},
        {512, 0, 512},      {700, 3, 512},      {5, 17, 1000},
        {334, 17, 1000},    {33, 99, 100},      {2, 64, 63},
        {40, 1, 65},        {1500, 5, 4097},    {900, 0, 4097},
        {10, 70000, 12345}, {50000, 0, 65536},
    };
    Rng pick(1206);
    for (int i = 0; i < 400; ++i) {
        // The column (512-row subarray) and bank-medium shapes.
        const bool bank = i % 2 == 0;
        shapes.push_back({static_cast<unsigned>(
                              1 + pick.uniformInt(bank ? 320 : 170)),
                          bank ? 0 : 512u * (1 + i % 100),
                          bank ? 65536u : 512u});
    }
    for (int i = 0; i < 300; ++i) {
        const auto span = static_cast<uint32_t>(
            i % 3 == 0 ? 65536 : 1 + pick.uniformInt(2000));
        const bool any_count = i % 5 == 0 && span <= 2000;
        const auto count = static_cast<unsigned>(1 + pick.uniformInt(
            any_count ? span + 10 : std::min(span / 4 + 1, 400u)));
        shapes.push_back({count,
                          static_cast<uint32_t>(pick.uniformInt(1u << 20)),
                          span});
    }

    // Two threads at once: each keeps its own bitmap.
    auto check = [&](uint64_t seed, unsigned &mismatches) {
        for (size_t i = 0; i < shapes.size(); ++i) {
            const Shape &shape = shapes[i];
            Rng a(seed + i);
            Rng b(seed + i);
            const RowSet rows =
                sampler_.randomRows(shape.count, shape.base, shape.span, a);
            const RowSet expected =
                sortedDrawRows(shape.count, shape.base, shape.span, b);
            mismatches += rows != expected;
            mismatches += a.next() != b.next();
            mismatches += rows.all ||
                rows.rows.size() != std::min(shape.count, shape.span);
        }
    };
    unsigned first = 0;
    unsigned second = 0;
    std::thread other([&] { check(5150, second); });
    check(4242, first);
    other.join();
    EXPECT_EQ(first, 0u);
    EXPECT_EQ(second, 0u);
}

TEST_F(GeometrySamplerTest, BankExtentMixture)
{
    unsigned massive = 0;
    unsigned small = 0;
    const int trials = 4000;
    for (int i = 0; i < trials; ++i) {
        const FaultRegion region =
            sampler_.sample(FaultMode::SingleBank, rng_);
        EXPECT_EQ(region.bankCount(), 1u);
        if (region.massive())
            ++massive;
        else if (region.distinctRowCount(geometry_) <= 64)
            ++small;
    }
    const double massive_frac = static_cast<double>(massive) / trials;
    const double expected_massive =
        1.0 - params_.bankSmallProb - params_.bankMediumProb;
    EXPECT_NEAR(massive_frac, expected_massive, 0.03);
    EXPECT_GT(small, trials / 3);
}

TEST_F(GeometrySamplerTest, MultiBankSpansSeveralBanks)
{
    for (int i = 0; i < 300; ++i) {
        const FaultRegion region =
            sampler_.sample(FaultMode::MultiBank, rng_);
        EXPECT_GE(region.bankCount(), params_.multiBankMin);
        EXPECT_LE(region.bankCount(), geometry_.banksPerDevice);
    }
}

TEST_F(GeometrySamplerTest, MultiRankPinFaultIsMassiveSingleBit)
{
    unsigned massive = 0;
    const int trials = 2000;
    for (int i = 0; i < trials; ++i) {
        const FaultRegion region =
            sampler_.sample(FaultMode::MultiRank, rng_);
        if (region.massive()) {
            ++massive;
            EXPECT_DOUBLE_EQ(region.clusters()[0].bitMask == 0xffffffffu
                                 ? 1.0
                                 : region.symbolFraction(),
                             0.25);
        }
    }
    EXPECT_NEAR(static_cast<double>(massive) / trials,
                params_.multiRankMassiveProb, 0.04);
}

TEST(FaultModelConfig, AdjustmentFactorMatchesEq1)
{
    FaultModelConfig config;
    // Defaults: 0.1% + 0.1% at 100x -> ~0.8 for the rest.
    EXPECT_NEAR(config.adjustmentFactor(), (1.0 - 0.2) / 0.998, 1e-9);
    config.accelerationEnabled = false;
    EXPECT_DOUBLE_EQ(config.adjustmentFactor(), 1.0);
}

TEST(FaultSampler, ExpectedFaultCountMatchesAnalytic)
{
    FaultModelConfig config;
    config.accelerationEnabled = false;
    const NodeFaultSampler sampler(config);
    // 40.3 FIT/device * 144 devices * 52596h.
    const double expected = 40.3e-9 * 144 * config.missionHours;
    EXPECT_NEAR(sampler.expectedFaultsPerNode(), expected, 1e-6);

    Rng rng(77);
    RunningStat stat;
    for (int i = 0; i < 30000; ++i)
        stat.add(static_cast<double>(sampler.sampleNode(rng).faults.size()));
    EXPECT_NEAR(stat.mean(), expected, 0.01);
}

TEST(FaultSampler, AccelerationPreservesPopulationMean)
{
    FaultModelConfig config;  // Acceleration on.
    const NodeFaultSampler sampler(config);
    Rng rng(78);
    RunningStat stat;
    for (int i = 0; i < 60000; ++i)
        stat.add(static_cast<double>(sampler.sampleNode(rng).faults.size()));
    const double expected = sampler.expectedFaultsPerNode();
    EXPECT_NEAR(stat.mean(), expected, expected * 0.1);
}

TEST(FaultSampler, FitScaleMultiplies)
{
    FaultModelConfig config;
    config.accelerationEnabled = false;
    config.fitScale = 10.0;
    const NodeFaultSampler sampler(config);
    Rng rng(79);
    RunningStat stat;
    for (int i = 0; i < 10000; ++i)
        stat.add(static_cast<double>(sampler.sampleNode(rng).faults.size()));
    EXPECT_NEAR(stat.mean(), sampler.expectedFaultsPerNode(), 0.1);
    EXPECT_NEAR(stat.mean(), 10 * 40.3e-9 * 144 * config.missionHours,
                0.1);
}

TEST(FaultSampler, ModeMixMatchesRates)
{
    FaultModelConfig config;
    config.accelerationEnabled = false;
    config.fitScale = 50.0;  // More faults per node for statistics.
    const NodeFaultSampler sampler(config);
    Rng rng(80);
    uint64_t counts[kFaultModeCount] = {};
    uint64_t permanent = 0;
    uint64_t total = 0;
    for (int i = 0; i < 4000; ++i) {
        for (const auto &fault : sampler.sampleNode(rng).faults) {
            ++counts[static_cast<unsigned>(fault.mode)];
            permanent += fault.permanent();
            ++total;
        }
    }
    const FitRates rates = FitRates::cielo();
    const double bit_share =
        (rates.transient(FaultMode::SingleBit) +
         rates.permanent(FaultMode::SingleBit)) / rates.total();
    EXPECT_NEAR(static_cast<double>(
                    counts[static_cast<unsigned>(FaultMode::SingleBit)]) /
                    total,
                bit_share, 0.02);
    EXPECT_NEAR(static_cast<double>(permanent) / total,
                rates.totalPermanent() / rates.total(), 0.02);
}

TEST(FaultSampler, TimesSortedWithinMission)
{
    FaultModelConfig config;
    config.fitScale = 30.0;
    const NodeFaultSampler sampler(config);
    Rng rng(81);
    for (int i = 0; i < 500; ++i) {
        const NodeSample node = sampler.sampleNode(rng);
        double last = 0.0;
        for (const auto &fault : node.faults) {
            EXPECT_GE(fault.timeHours, last);
            EXPECT_LE(fault.timeHours, config.missionHours);
            last = fault.timeHours;
        }
    }
}

TEST(FaultSampler, ExactPathAgreesOnMean)
{
    FaultModelConfig config;
    config.accelerationEnabled = false;
    config.fitScale = 5.0;
    const NodeFaultSampler sampler(config);
    Rng rng_fast(90);
    Rng rng_exact(91);
    RunningStat fast;
    RunningStat exact;
    for (int i = 0; i < 4000; ++i) {
        fast.add(static_cast<double>(
            sampler.sampleNode(rng_fast).faults.size()));
        exact.add(static_cast<double>(
            sampler.sampleNodeExact(rng_exact).faults.size()));
    }
    EXPECT_NEAR(fast.mean(), exact.mean(),
                4 * (fast.stderror() + exact.stderror()) + 0.02);
}

TEST(FaultSampler, MultiRankMirrorsPartnerDimm)
{
    FaultModelConfig config;
    config.accelerationEnabled = false;
    config.fitScale = 200.0;
    const NodeFaultSampler sampler(config);
    Rng rng(92);
    bool found = false;
    for (int i = 0; i < 2000 && !found; ++i) {
        for (const auto &fault : sampler.sampleNode(rng).faults) {
            if (fault.mode != FaultMode::MultiRank)
                continue;
            found = true;
            ASSERT_EQ(fault.parts.size(), 2u);
            EXPECT_EQ(fault.parts[0].dimm ^ 1, fault.parts[1].dimm);
            EXPECT_EQ(fault.parts[0].device, fault.parts[1].device);
        }
    }
    EXPECT_TRUE(found);
}

TEST(FaultSampler, IntermittentRatesWithinRange)
{
    FaultModelConfig config;
    config.fitScale = 50.0;
    config.hardPermanentFraction = 0.0;  // All intermittent.
    const NodeFaultSampler sampler(config);
    Rng rng(93);
    unsigned seen = 0;
    for (int i = 0; i < 500; ++i) {
        for (const auto &fault : sampler.sampleNode(rng).faults) {
            if (!fault.permanent())
                continue;
            ++seen;
            EXPECT_FALSE(fault.hardPermanent);
            EXPECT_GE(fault.activationRatePerHour,
                      config.intermittentMinRatePerHour * 0.999);
            EXPECT_LE(fault.activationRatePerHour,
                      config.intermittentMaxRatePerHour * 1.001);
        }
    }
    EXPECT_GT(seen, 100u);
}

TEST(FaultSetTest, ProbeAppliesPermanentFaultsOnly)
{
    FaultSet set(geom());
    FaultRecord permanent;
    permanent.persistence = Persistence::Permanent;
    permanent.parts.push_back({3, 7, bitRegion(1, 5, 9, 0xf)});
    FaultRecord transient;
    transient.persistence = Persistence::Transient;
    transient.parts.push_back({3, 7, bitRegion(1, 6, 9, 0xf0)});
    set.addFault(permanent);
    set.addFault(transient);

    DeviceCoord coord{3, 7, 1, 5, 9};
    EXPECT_EQ(set.probe(coord).mask, 0xfu);
    coord.row = 6;
    EXPECT_EQ(set.probe(coord).mask, 0u);  // Transient not stuck.
    coord.device = 8;
    EXPECT_EQ(set.probe(coord).mask, 0u);
}

TEST(FaultSetTest, ProbeStuckValueDeterministic)
{
    FaultSet set(geom());
    FaultRecord fault;
    fault.parts.push_back({0, 0, bitRegion(0, 0, 0, 0xffffffff)});
    set.addFault(fault);
    const DeviceCoord coord{0, 0, 0, 0, 0};
    EXPECT_EQ(set.probe(coord).value, set.probe(coord).value);
    EXPECT_EQ(set.probe(coord).mask, 0xffffffffu);
}

/** probe() as a scan over every fault of the set. */
uint32_t
probeByScan(const FaultSet &set, const DeviceCoord &coord,
            bool include_repaired)
{
    uint32_t mask = 0;
    for (size_t index = 0; index < set.faults().size(); ++index) {
        const FaultRecord &fault = set.faults()[index];
        if (!fault.permanent() || (!include_repaired && set.repaired(index)))
            continue;
        for (const DevicePart &part : fault.parts) {
            if (part.dimm == coord.dimm && part.device == coord.device)
                mask |= part.region.sliceMask(coord.bank, coord.row,
                                              coord.colBlock);
        }
    }
    return mask;
}

TEST(FaultSetTest, ProbeMatchesScanOverEveryFault)
{
    // Small coordinate ranges so that probes hit; dimm and device run
    // one past the geometry so off-geometry parts are covered too.
    const DramGeometry g = geom();
    Rng rng(77);
    auto coordinate = [&] {
        return DeviceCoord{
            static_cast<unsigned>(rng.uniformInt(g.dimmsPerNode() + 1)),
            static_cast<unsigned>(rng.uniformInt(g.devicesPerRank() + 1)),
            static_cast<unsigned>(rng.uniformInt(2)),
            static_cast<unsigned>(rng.uniformInt(3)),
            static_cast<unsigned>(rng.uniformInt(3))};
    };
    FaultSet set(g);
    // The refill is smaller, so lists that clear() left behind would
    // index past the new faults (caught under the sanitizers).
    for (const int faults : {60, 25}) {
        for (int f = 0; f < faults; ++f) {
            FaultRecord fault;
            if (rng.uniformInt(4) == 0)
                fault.persistence = Persistence::Transient;
            const int parts = 1 + static_cast<int>(rng.uniformInt(3));
            DeviceCoord at = coordinate();
            for (int p = 0; p < parts; ++p) {
                // Half the extra parts land on the previous part's device.
                if (p == 0 || rng.uniformInt(2) == 0)
                    at = coordinate();
                fault.parts.push_back(
                    {at.dimm, at.device,
                     bitRegion(at.bank, at.row,
                               static_cast<uint16_t>(at.colBlock),
                               static_cast<uint32_t>(rng.next()))});
            }
            const size_t id = set.addFault(fault);
            set.setRepaired(id, rng.uniformInt(3) == 0);
        }
        for (int i = 0; i < 5000; ++i) {
            const DeviceCoord coord = coordinate();
            for (const bool include_repaired : {true, false}) {
                const StuckBits stuck = set.probe(coord, include_repaired);
                ASSERT_EQ(stuck.mask,
                          probeByScan(set, coord, include_repaired))
                    << faults << " faults, probe " << i;
                if (stuck.mask == 0) {
                    ASSERT_EQ(stuck.value, 0u);
                }
            }
        }
        set.clear();
        for (int i = 0; i < 100; ++i)
            ASSERT_EQ(set.probe(coordinate()).mask, 0u);
    }
}

TEST(FaultSetTest, RepairFlagAndClear)
{
    FaultSet set(geom());
    FaultRecord fault;
    fault.parts.push_back({0, 0, bitRegion(0, 0, 0, 1)});
    const size_t id = set.addFault(fault);
    EXPECT_FALSE(set.repaired(id));
    set.setRepaired(id, true);
    EXPECT_TRUE(set.repaired(id));
    set.clear();
    EXPECT_TRUE(set.faults().empty());
}

} // namespace
} // namespace relaxfault
