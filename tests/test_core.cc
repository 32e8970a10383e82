/**
 * @file
 * End-to-end tests of the RelaxFaultController datapath: data integrity
 * through injected faults, repair + ECC interplay, remap coherence under
 * writes, the faulty-bank filter, and the Table 1 storage accounting;
 * plus differential tests of the flat datapath (line fault probe,
 * per-bank repaired-device masks, flat remap store) against the seed's
 * per-device loops and hash-map store.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "core/relaxfault_controller.h"
#include "core/scrubber.h"

namespace relaxfault {
namespace {

FaultRecord
makeFault(FaultRegion region, unsigned dimm = 0, unsigned device = 0)
{
    FaultRecord fault;
    fault.persistence = Persistence::Permanent;
    fault.parts.push_back({dimm, device, std::move(region)});
    return fault;
}

FaultRegion
rowRegion(unsigned bank, uint32_t row)
{
    RegionCluster cluster;
    cluster.bankMask = 1u << bank;
    cluster.rows = RowSet::of({row});
    cluster.cols = ColSet::allCols();
    return FaultRegion({cluster});
}

FaultRegion
sliceRegion(unsigned bank, uint32_t row, uint16_t col, uint32_t mask)
{
    RegionCluster cluster;
    cluster.bankMask = 1u << bank;
    cluster.rows = RowSet::of({row});
    cluster.cols = ColSet::of({col});
    cluster.bitMask = mask;
    return FaultRegion({cluster});
}

class ControllerTest : public ::testing::Test
{
  protected:
    ControllerTest() : controller_(ControllerConfig{}) {}

    /** Physical address of (channel, rank, bank, row, colBlock). */
    uint64_t
    pa(unsigned channel, unsigned rank, unsigned bank, uint32_t row,
       uint16_t col)
    {
        LineCoord coord{channel, rank, bank, row, col};
        return controller_.addressMap().encode(coord);
    }

    void
    fillPattern(uint8_t *data, uint64_t seed)
    {
        Rng rng(seed);
        for (unsigned i = 0; i < 64; ++i)
            data[i] = static_cast<uint8_t>(rng.uniformInt(256));
    }

    RelaxFaultController controller_;
};

TEST_F(ControllerTest, CleanRoundTrip)
{
    uint8_t data[64];
    uint8_t out[64];
    fillPattern(data, 1);
    const uint64_t address = pa(0, 0, 0, 10, 20);
    controller_.write(address, data);
    EXPECT_EQ(controller_.read(address, out), EccStatus::Ok);
    EXPECT_EQ(std::memcmp(data, out, 64), 0);
    EXPECT_EQ(controller_.stats().reads, 1u);
    EXPECT_EQ(controller_.stats().writes, 1u);
}

TEST_F(ControllerTest, UnwrittenReadsZero)
{
    uint8_t out[64];
    std::memset(out, 0xff, 64);
    EXPECT_EQ(controller_.read(pa(1, 0, 2, 3, 4), out), EccStatus::Ok);
    for (unsigned i = 0; i < 64; ++i)
        ASSERT_EQ(out[i], 0);
}

TEST_F(ControllerTest, SingleDeviceFaultCorrectedByEccAlone)
{
    // A fault that is NOT repaired (we inject but nothing needs repair
    // budget... use a fresh controller with a zero budget).
    ControllerConfig config;
    config.budget = RepairBudget{0, 0};  // Repair impossible.
    RelaxFaultController controller(config);

    uint8_t data[64];
    fillPattern(data, 2);
    LineCoord coord{0, 0, 1, 100, 7};
    const uint64_t address = controller.addressMap().encode(coord);
    controller.write(address, data);

    EXPECT_FALSE(controller.reportFault(
        makeFault(sliceRegion(1, 100, 7, 0x0000000f), 0, 5)));

    uint8_t out[64];
    // Chipkill corrects the single faulty device.
    EXPECT_EQ(controller.read(address, out), EccStatus::Corrected);
    EXPECT_EQ(std::memcmp(data, out, 64), 0);
    EXPECT_GT(controller.stats().correctedReads, 0u);
}

TEST_F(ControllerTest, RepairedRowFaultReadsCleanly)
{
    // Write data across a full faulty device row, report + repair the
    // fault, and verify every line reads back intact with no ECC work.
    const unsigned bank = 3;
    const uint32_t row = 777;
    std::vector<std::array<uint8_t, 64>> lines(32);
    for (unsigned c = 0; c < 32; ++c) {
        fillPattern(lines[c].data(), 100 + c);
        controller_.write(pa(0, 0, bank, row, static_cast<uint16_t>(c)),
                          lines[c].data());
    }

    EXPECT_TRUE(controller_.reportFault(
        makeFault(rowRegion(bank, row), 0, 9)));
    EXPECT_TRUE(controller_.repair().bankFlagged(0, bank));

    for (unsigned c = 0; c < 32; ++c) {
        uint8_t out[64];
        const EccStatus status = controller_.read(
            pa(0, 0, bank, row, static_cast<uint16_t>(c)), out);
        // Remap merge replaces the faulty device before decode: clean.
        EXPECT_EQ(status, EccStatus::Ok);
        EXPECT_EQ(std::memcmp(lines[c].data(), out, 64), 0);
    }
    EXPECT_GT(controller_.stats().remapMerges, 0u);
    EXPECT_GT(controller_.stats().remapFills, 0u);
}

TEST_F(ControllerTest, WritesAfterRepairStayCoherent)
{
    const unsigned bank = 2;
    const uint32_t row = 555;
    uint8_t data[64];
    fillPattern(data, 7);
    const uint64_t address = pa(0, 0, bank, row, 4);
    controller_.write(address, data);

    ASSERT_TRUE(controller_.reportFault(
        makeFault(rowRegion(bank, row), 0, 4)));

    // Overwrite after repair: the remap store must track the new data.
    uint8_t new_data[64];
    fillPattern(new_data, 8);
    controller_.write(address, new_data);
    uint8_t out[64];
    EXPECT_EQ(controller_.read(address, out), EccStatus::Ok);
    EXPECT_EQ(std::memcmp(new_data, out, 64), 0);

    // And again, multiple overwrites.
    fillPattern(new_data, 9);
    controller_.write(address, new_data);
    EXPECT_EQ(controller_.read(address, out), EccStatus::Ok);
    EXPECT_EQ(std::memcmp(new_data, out, 64), 0);
}

TEST_F(ControllerTest, TwoFaultyDevicesOneRepairedStillCorrects)
{
    const unsigned bank = 1;
    const uint32_t row = 1234;
    uint8_t data[64];
    fillPattern(data, 11);
    const uint64_t address = pa(0, 0, bank, row, 10);
    controller_.write(address, data);

    // Device 3's whole row is repaired; device 7 has an unrepairable...
    // actually just unreported-late bit fault: ECC handles it.
    ASSERT_TRUE(controller_.reportFault(
        makeFault(rowRegion(bank, row), 0, 3)));
    ASSERT_TRUE(controller_.reportFault(
        makeFault(sliceRegion(bank, row, 10, 0xf0), 0, 7)));

    uint8_t out[64];
    const EccStatus status = controller_.read(address, out);
    EXPECT_NE(status, EccStatus::Uncorrectable);
    EXPECT_EQ(std::memcmp(data, out, 64), 0);
}

TEST_F(ControllerTest, TwoUnrepairedOverlappingFaultsAreDue)
{
    ControllerConfig config;
    config.budget = RepairBudget{0, 0};
    RelaxFaultController controller(config);

    uint8_t data[64];
    fillPattern(data, 13);
    LineCoord coord{0, 0, 0, 42, 5};
    const uint64_t address = controller.addressMap().encode(coord);
    controller.write(address, data);

    // Two devices stuck in the same beat pair (symbol) of the line.
    controller.reportFault(
        makeFault(sliceRegion(0, 42, 5, 0x000000ff), 0, 2));
    controller.reportFault(
        makeFault(sliceRegion(0, 42, 5, 0x000000ff), 0, 6));

    uint8_t out[64];
    const EccStatus status = controller.read(address, out);
    // Double-symbol error: detected (or, rarely, miscorrected — the
    // codec's documented ~7% aliasing). It must not read back clean
    // via silent luck, unless the stuck values happen to match data.
    if (status == EccStatus::Uncorrectable)
        SUCCEED();
    else
        EXPECT_GT(controller.stats().uncorrectableReads +
                      controller.stats().correctedReads,
                  0u);
}

TEST_F(ControllerTest, TransientFaultNeedsNoRepair)
{
    FaultRecord transient;
    transient.persistence = Persistence::Transient;
    transient.parts.push_back({0, 1, sliceRegion(0, 1, 1, 0x1)});
    EXPECT_TRUE(controller_.reportFault(transient));
    EXPECT_EQ(controller_.repair().usedLines(), 0u);
}

TEST_F(ControllerTest, BankFilterSkipsHealthyBanks)
{
    uint8_t data[64] = {1};
    controller_.write(pa(0, 0, 0, 1, 1), data);
    ASSERT_TRUE(
        controller_.reportFault(makeFault(rowRegion(5, 99), 0, 0)));
    uint8_t out[64];
    controller_.read(pa(0, 0, 0, 1, 1), out);  // Bank 0: not flagged.
    EXPECT_EQ(controller_.stats().bankFilterHits, 0u);
    controller_.read(pa(0, 0, 5, 99, 0), out);  // Bank 5: flagged.
    EXPECT_EQ(controller_.stats().bankFilterHits, 1u);
}

TEST_F(ControllerTest, StorageOverheadMatchesTable1)
{
    const StorageOverhead overhead =
        RelaxFaultController::storageOverhead(ControllerConfig{});
    EXPECT_EQ(overhead.faultyBankTableBytes, 8u);
    EXPECT_EQ(overhead.coalescerBytes, 128u);
    EXPECT_EQ(overhead.llcTagExtensionBytes, 16384u);
    EXPECT_EQ(overhead.totalBytes(), 16520u);
}

TEST_F(ControllerTest, StorageOverheadScalesWithLlc)
{
    ControllerConfig config;
    config.llc.sizeBytes = 16 * 1024 * 1024;
    const StorageOverhead overhead =
        RelaxFaultController::storageOverhead(config);
    EXPECT_EQ(overhead.llcTagExtensionBytes, 32768u);
}

TEST(ControllerProperty, RandomTrafficOverRepairedFaultsStaysIntact)
{
    // Property test: interleave writes/reads over a region containing
    // several repaired faults; every read must return the last write.
    RelaxFaultController controller{ControllerConfig{}};
    Rng rng(2016);

    const unsigned bank = 4;
    std::vector<FaultRecord> faults;
    faults.push_back(makeFault(rowRegion(bank, 100), 0, 1));
    faults.push_back(makeFault(sliceRegion(bank, 101, 3, 0xffff), 0, 2));
    faults.push_back(makeFault(rowRegion(bank, 102), 0, 17));  // Check dev.
    for (const auto &fault : faults)
        ASSERT_TRUE(controller.reportFault(fault));

    std::unordered_map<uint64_t, std::array<uint8_t, 64>> shadow;
    for (int op = 0; op < 4000; ++op) {
        LineCoord coord;
        coord.bank = bank;
        coord.row = 100 + static_cast<uint32_t>(rng.uniformInt(3));
        coord.colBlock = static_cast<unsigned>(rng.uniformInt(32));
        const uint64_t address = controller.addressMap().encode(coord);
        if (rng.bernoulli(0.5) || !shadow.count(address)) {
            std::array<uint8_t, 64> data;
            for (auto &byte : data)
                byte = static_cast<uint8_t>(rng.uniformInt(256));
            controller.write(address, data.data());
            shadow[address] = data;
        } else {
            uint8_t out[64];
            const EccStatus status = controller.read(address, out);
            ASSERT_NE(status, EccStatus::Uncorrectable);
            ASSERT_EQ(std::memcmp(out, shadow[address].data(), 64), 0);
        }
    }
}


TEST(ControllerErasure, TwoKnownFaultyDevicesSurviveWithErasureMode)
{
    // Extension: with erasure decoding on, two tracked-but-unrepaired
    // faulty devices in the same symbol no longer produce a DUE.
    ControllerConfig config;
    config.budget = RepairBudget{0, 0};  // Force both to stay unrepaired.
    config.erasureDecoding = true;
    RelaxFaultController controller(config);

    uint8_t data[64];
    Rng rng(31);
    for (auto &byte : data)
        byte = static_cast<uint8_t>(rng.uniformInt(256));
    LineCoord coord{0, 0, 0, 42, 5};
    const uint64_t address = controller.addressMap().encode(coord);
    controller.write(address, data);

    for (unsigned device : {2u, 6u}) {
        FaultRecord fault;
        fault.persistence = Persistence::Permanent;
        fault.parts.push_back(
            {0, device, sliceRegion(0, 42, 5, 0x000000ff)});
        controller.reportFault(fault);
    }

    uint8_t out[64];
    const EccStatus status = controller.read(address, out);
    EXPECT_EQ(status, EccStatus::Corrected);
    EXPECT_EQ(std::memcmp(data, out, 64), 0);
    EXPECT_GT(controller.stats().erasureDecodes, 0u);

    // A third faulty device exceeds even erasure decoding.
    FaultRecord third;
    third.persistence = Persistence::Permanent;
    third.parts.push_back({0, 11, sliceRegion(0, 42, 5, 0x000000ff)});
    controller.reportFault(third);
    EXPECT_EQ(controller.read(address, out), EccStatus::Uncorrectable);
}

TEST(ControllerErasure, RepairedFaultsAreNotErasures)
{
    // Once repaired, a device's data comes from the LLC; it must no
    // longer burn an erasure slot.
    ControllerConfig config;
    config.budget = RepairBudget{4, 32768};
    config.erasureDecoding = true;
    RelaxFaultController controller(config);

    uint8_t data[64] = {9, 8, 7};
    LineCoord coord{0, 0, 1, 10, 2};
    const uint64_t address = controller.addressMap().encode(coord);
    controller.write(address, data);

    FaultRecord fault;
    fault.persistence = Persistence::Permanent;
    fault.parts.push_back({0, 3, rowRegion(1, 10)});
    ASSERT_TRUE(controller.reportFault(fault));

    uint8_t out[64];
    EXPECT_EQ(controller.read(address, out), EccStatus::Ok);
    EXPECT_EQ(controller.stats().erasureDecodes, 0u);
}

TEST(ControllerErasure, OnlyLinesWithUnrepairedDamageAreErasureDecoded)
{
    // The erasure mask comes from one line probe that skips repaired
    // faults: a line with two unrepaired faulty devices (and a repaired
    // one) decodes with erasures, once per read; a line of the same
    // bank outside the damage, and a line whose only damage is
    // repaired, do not.
    ControllerConfig config;
    config.budget = RepairBudget{4, 64};
    config.erasureDecoding = true;
    RelaxFaultController controller(config);

    uint8_t data[64];
    Rng rng(41);
    for (auto &byte : data)
        byte = static_cast<uint8_t>(rng.uniformInt(256));
    const LineCoord damaged{0, 0, 2, 42, 5};
    const LineCoord repaired_only{0, 0, 2, 43, 5};
    const LineCoord clean{0, 0, 2, 44, 5};
    for (const LineCoord &coord : {damaged, repaired_only, clean})
        controller.write(controller.addressMap().encode(coord), data);

    ASSERT_TRUE(controller.reportFault(makeFault(rowRegion(2, 43), 0, 9)));
    ASSERT_TRUE(controller.reportFault(makeFault(rowRegion(2, 42), 0, 9)));
    // Too big for the 64-line budget: these stay unrepaired.
    for (unsigned device : {2u, 6u}) {
        RegionCluster cluster;
        cluster.bankMask = 1u << 2;
        cluster.rows = RowSet::of({40, 41, 42, 45, 46, 47, 48, 49, 50});
        cluster.cols = ColSet::allCols();
        cluster.bitMask = 0x000000ff;
        EXPECT_FALSE(controller.reportFault(
            makeFault(FaultRegion({cluster}), 0, device)));
    }

    uint8_t out[64];
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(controller.readLine(damaged, out), EccStatus::Corrected);
        EXPECT_EQ(std::memcmp(data, out, 64), 0);
    }
    EXPECT_EQ(controller.stats().erasureDecodes, 3u);
    EXPECT_EQ(controller.readLine(repaired_only, out), EccStatus::Ok);
    EXPECT_EQ(controller.readLine(clean, out), EccStatus::Ok);
    EXPECT_EQ(std::memcmp(data, out, 64), 0);
    EXPECT_EQ(controller.stats().erasureDecodes, 3u);
}

// ---------------------------------------------------------------------
// Differential tests of the flat datapath.

/**
 * A random fault on DIMM 0 or 1, banks 0-3 (sometimes one more bank),
 * rows 100-107, column groups 0-3: one or two parts, one or two
 * clusters each; some transient; the part's device is any of the 18.
 */
FaultRecord
randomFault(Rng &rng)
{
    FaultRecord fault;
    fault.persistence = rng.uniformInt(8) == 0 ? Persistence::Transient
                                               : Persistence::Permanent;
    const unsigned parts = 1 + (rng.uniformInt(4) == 0 ? 1 : 0);
    for (unsigned p = 0; p < parts; ++p) {
        std::vector<RegionCluster> clusters;
        const unsigned count = 1 + (rng.uniformInt(3) == 0 ? 1 : 0);
        for (unsigned c = 0; c < count; ++c) {
            RegionCluster cluster;
            cluster.bankMask = 1u << rng.uniformInt(4);
            if (rng.uniformInt(5) == 0)
                cluster.bankMask |= 1u << rng.uniformInt(8);
            const auto row = static_cast<uint32_t>(100 + rng.uniformInt(8));
            const auto col = static_cast<uint16_t>(rng.uniformInt(64));
            switch (rng.uniformInt(4)) {
            case 0:  // Row.
                cluster.rows = RowSet::of({row});
                cluster.cols = ColSet::allCols();
                break;
            case 1:  // Column over the row window.
                cluster.rows = RowSet::of(
                    {100, 101, 102, 103, 104, 105, 106, 107});
                cluster.cols = ColSet::of({col});
                break;
            default:  // One slice, one symbol or random bits.
                cluster.rows = RowSet::of({row});
                cluster.cols = ColSet::of({col});
                cluster.bitMask = rng.uniformInt(2) == 0
                    ? 0xffu << (8 * rng.uniformInt(4))
                    : static_cast<uint32_t>(rng.next()) | 1u;
                break;
            }
            clusters.push_back(std::move(cluster));
        }
        fault.parts.push_back({static_cast<unsigned>(rng.uniformInt(2)),
                               static_cast<unsigned>(rng.uniformInt(18)),
                               FaultRegion(std::move(clusters))});
    }
    return fault;
}

TEST(FaultSetLineProbe, MatchesEighteenPerDeviceProbes)
{
    // probeLine against the per-device probe() of every device, with
    // and without repaired faults, over multi-cluster, multi-part,
    // transient and off-geometry faults (a DIMM or device past the
    // geometry, banks past banksPerDevice) and over lines inside and
    // outside the geometry.
    const DramGeometry geometry;
    FaultSet faults(geometry);
    Rng rng(1717);
    for (int i = 0; i < 60; ++i) {
        FaultRecord fault = randomFault(rng);
        if (i % 10 == 3)
            fault.parts.front().dimm = geometry.dimmsPerNode();
        if (i % 10 == 7)
            fault.parts.front().device = geometry.devicesPerRank() + 2;
        if (i % 10 == 5) {
            RegionCluster cluster;
            cluster.bankMask = 0xffffffffu;
            cluster.rows = RowSet::of({103});
            cluster.cols = ColSet::allCols();
            fault.parts.front().region = FaultRegion({cluster});
        }
        const size_t index = faults.addFault(fault);
        faults.setRepaired(index, rng.uniformInt(2) == 0);
    }

    unsigned stuck_lines = 0;
    for (int i = 0; i < 40000; ++i) {
        LineCoord coord;
        coord.channel = static_cast<unsigned>(rng.uniformInt(1 + 1));
        coord.rank = static_cast<unsigned>(rng.uniformInt(2));
        coord.bank = static_cast<unsigned>(rng.uniformInt(8));
        coord.row = static_cast<unsigned>(99 + rng.uniformInt(10));
        coord.colBlock = static_cast<unsigned>(rng.uniformInt(64));
        if (i % 50 == 0)
            coord.channel = geometry.channels;  // DIMM 8, 9: off-geometry.
        if (i % 50 == 1)
            coord.bank = geometry.banksPerDevice + 1;
        for (const bool include_repaired : {true, false}) {
            StuckBits line[FunctionalDram::kMaxDevices];
            const uint32_t mask =
                faults.probeLine(coord, include_repaired, line);
            DeviceCoord device_coord{coord.dimm(geometry), 0, coord.bank,
                                     coord.row, coord.colBlock};
            uint32_t expected_mask = 0;
            for (unsigned d = 0; d < geometry.devicesPerRank(); ++d) {
                device_coord.device = d;
                const StuckBits expected =
                    faults.probe(device_coord, include_repaired);
                if (expected.mask == 0)
                    continue;
                expected_mask |= 1u << d;
                ASSERT_TRUE(mask & (1u << d)) << "device " << d;
                ASSERT_EQ(line[d].mask, expected.mask);
                ASSERT_EQ(line[d].value, expected.value);
            }
            ASSERT_EQ(mask, expected_mask);
            stuck_lines += mask != 0 ? 1 : 0;
        }
    }
    EXPECT_GT(stuck_lines, 1000u);
}

/**
 * The seed's controller datapath, kept as the reference for the flat
 * one: a per-device fault probe, a hash-map remap store, and merge
 * loops that test unitRepaired() for all 18 devices of the rank. It is
 * built from the same FaultSet, RelaxFaultRepair and LineCodec and
 * degrades by counting a DUE.
 */
class SeedDatapathReference
{
  public:
    explicit SeedDatapathReference(const ControllerConfig &config)
        : config_(config), dram_(config.geometry), faults_(config.geometry),
          repair_(config.geometry, config.llc, config.budget,
                  config.xorFold)
    {
        dram_.setFaultProbe([this](const LineCoord &coord, StuckBits *stuck) {
            uint32_t mask = 0;
            DeviceCoord device_coord{coord.dimm(config_.geometry), 0,
                                     coord.bank, coord.row, coord.colBlock};
            for (unsigned d = 0; d < config_.geometry.devicesPerRank(); ++d) {
                device_coord.device = d;
                stuck[d] = faults_.probe(device_coord);
                mask |= stuck[d].mask != 0 ? 1u << d : 0u;
            }
            return mask;
        });
    }

    void write(const LineCoord &coord, const uint8_t data[64])
    {
        ++stats.writes;
        uint8_t line[LineCodec::kLineBytes];
        LineCodec::buildLine(data, line);
        dram_.writeLine(coord, line);
        const unsigned dimm = coord.dimm(config_.geometry);
        if (!repair_.bankFlagged(dimm, coord.bank))
            return;
        RemapUnit unit{dimm, 0, coord.bank, coord.row,
                       static_cast<uint16_t>(coord.colBlock / 16)};
        for (unsigned d = 0; d < config_.geometry.devicesPerRank(); ++d) {
            unit.device = d;
            if (!repair_.unitRepaired(unit))
                continue;
            std::memcpy(ensureFilled(unit).data() + (coord.colBlock % 16) * 4,
                        line + d * 4, 4);
        }
    }

    EccStatus readLine(const LineCoord &coord, uint8_t data[64])
    {
        ++stats.reads;
        uint8_t line[LineCodec::kLineBytes];
        dram_.readLine(coord, line);
        const unsigned dimm = coord.dimm(config_.geometry);
        if (repair_.bankFlagged(dimm, coord.bank)) {
            ++stats.bankFilterHits;
            RemapUnit unit{dimm, 0, coord.bank, coord.row,
                           static_cast<uint16_t>(coord.colBlock / 16)};
            for (unsigned d = 0; d < config_.geometry.devicesPerRank();
                 ++d) {
                unit.device = d;
                if (!repair_.unitRepaired(unit))
                    continue;
                std::memcpy(line + d * 4,
                            ensureFilled(unit).data() +
                                (coord.colBlock % 16) * 4,
                            4);
                ++stats.remapMerges;
            }
        }
        uint32_t erased = 0;
        if (config_.erasureDecoding) {
            DeviceCoord device_coord{dimm, 0, coord.bank, coord.row,
                                     coord.colBlock};
            for (unsigned d = 0; d < config_.geometry.devicesPerRank();
                 ++d) {
                device_coord.device = d;
                if (faults_.probe(device_coord, false).mask != 0)
                    erased |= 1u << d;
            }
            if (erased != 0)
                ++stats.erasureDecodes;
        }
        const LineCodec::LineResult decoded =
            LineCodec::decodeLineBatched(line, erased);
        if (decoded.status == EccStatus::Corrected)
            ++stats.correctedReads;
        else if (decoded.status == EccStatus::Uncorrectable)
            ++stats.uncorrectableReads;
        LineCodec::extractData(line, data);
        return decoded.status;
    }

    bool requestRepair(const FaultRecord &fault)
    {
        if (!repair_.tryRepair(fault)) {
            ++stats.budgetExhausted;
            ++stats.degradedDues;
            return false;
        }
        ++stats.faultsRepaired;
        for (const auto &part : fault.parts) {
            RemapUnit unit{part.dimm, part.device, 0, 0, 0};
            part.region.forEachRemapUnit(
                config_.geometry,
                [&](unsigned bank, uint32_t row, uint16_t group) {
                    unit.bank = bank;
                    unit.row = row;
                    unit.colGroup = group;
                    ensureFilled(unit);
                });
        }
        return true;
    }

    bool reportFault(const FaultRecord &fault)
    {
        ++stats.faultsReported;
        if (fault.permanent()) {
            const auto &tracked = faults_.faults();
            for (size_t i = 0; i < tracked.size(); ++i) {
                if (!tracked[i].permanent() || tracked[i].mode != fault.mode ||
                    tracked[i].parts != fault.parts)
                    continue;
                ++stats.duplicateFaults;
                if (faults_.repaired(i))
                    return true;
                const bool repaired = requestRepair(fault);
                if (repaired)
                    faults_.setRepaired(i, true);
                return repaired;
            }
        }
        const size_t index = faults_.addFault(fault);
        if (!fault.permanent())
            return true;
        const bool repaired = requestRepair(fault);
        if (repaired)
            faults_.setRepaired(index, true);
        return repaired;
    }

    /** The remap store: RemapLocation key -> line. */
    std::unordered_map<uint64_t, std::array<uint8_t, 64>> store;
    ControllerStats stats;

  private:
    uint64_t keyOf(const RemapUnit &unit) const
    {
        return repair_.map().locate(unit).key(repair_.map().setBits());
    }

    std::array<uint8_t, 64> &ensureFilled(const RemapUnit &unit)
    {
        const uint64_t key = keyOf(unit);
        if (const auto it = store.find(key); it != store.end())
            return it->second;
        std::array<uint8_t, 64> filled{};
        LineCoord coord{unit.dimm / config_.geometry.ranksPerChannel,
                        unit.dimm % config_.geometry.ranksPerChannel,
                        unit.bank, unit.row, 0};
        for (unsigned i = 0; i < 16; ++i) {
            coord.colBlock = unit.colGroup * 16u + i;
            uint8_t line[LineCodec::kLineBytes];
            dram_.readLine(coord, line);
            RemapUnit other = unit;
            for (unsigned d = 0; d < config_.geometry.devicesPerRank();
                 ++d) {
                if (d == unit.device)
                    continue;
                other.device = d;
                const auto it = store.find(keyOf(other));
                if (it == store.end() || !repair_.unitRepaired(other))
                    continue;
                std::memcpy(line + d * 4, it->second.data() + i * 4, 4);
            }
            LineCodec::decodeLineBatched(line);
            std::memcpy(filled.data() + i * 4, line + unit.device * 4, 4);
        }
        ++stats.remapFills;
        return store.emplace(key, filled).first->second;
    }

    ControllerConfig config_;
    FunctionalDram dram_;
    FaultSet faults_;
    RelaxFaultRepair repair_;
};

/** The controller's stats that the reference keeps. */
void
expectSameStats(const ControllerStats &a, const ControllerStats &b)
{
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.correctedReads, b.correctedReads);
    EXPECT_EQ(a.uncorrectableReads, b.uncorrectableReads);
    EXPECT_EQ(a.remapMerges, b.remapMerges);
    EXPECT_EQ(a.remapFills, b.remapFills);
    EXPECT_EQ(a.erasureDecodes, b.erasureDecodes);
    EXPECT_EQ(a.bankFilterHits, b.bankFilterHits);
    EXPECT_EQ(a.faultsReported, b.faultsReported);
    EXPECT_EQ(a.faultsRepaired, b.faultsRepaired);
    EXPECT_EQ(a.duplicateFaults, b.duplicateFaults);
    EXPECT_EQ(a.budgetExhausted, b.budgetExhausted);
    EXPECT_EQ(a.degradedDues, b.degradedDues);
}

/** The remap store's keys and lines equal the reference's. */
void
expectSameRemapStore(const RelaxFaultController &controller,
                     const SeedDatapathReference &reference)
{
    std::vector<uint64_t> keys;
    for (const auto &[key, line] : reference.store)
        keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    ASSERT_EQ(controller.remapStoreKeys(), keys);
    for (const uint64_t key : keys) {
        const uint8_t *line = controller.remapLine(key);
        ASSERT_NE(line, nullptr);
        ASSERT_EQ(std::memcmp(line, reference.store.at(key).data(), 64), 0)
            << "remap line " << key;
    }
    EXPECT_EQ(controller.remapLine(LineStore::kEmptyKey - 1), nullptr);
}

TEST(ControllerDifferential, MatchesTheSeedDatapath)
{
    // Random reads, writes, fault reports (new and repeated) and bare
    // requestRepair calls, on a small budget so that repairs also fail,
    // with erasure decoding off and on. Every read's status and data,
    // the stats, and the remap store's keys and lines must equal the
    // seed datapath's.
    struct Case
    {
        RepairBudget budget;
        bool erasure;
        uint64_t seed;
    };
    for (const Case &c : {Case{{4, 32768}, false, 1},
                          Case{{1, 160}, true, 2},
                          Case{{2, 40}, false, 3},
                          Case{{2, 40}, true, 4}}) {
        SCOPED_TRACE(c.seed);
        ControllerConfig config;
        config.budget = c.budget;
        config.erasureDecoding = c.erasure;
        RelaxFaultController controller(config);
        SeedDatapathReference reference(config);
        Rng rng(c.seed);
        std::vector<FaultRecord> reported;
        uint64_t failed_repairs = 0;
        for (int step = 0; step < 12000; ++step) {
            LineCoord coord;
            coord.rank = static_cast<unsigned>(rng.uniformInt(2));
            coord.bank = static_cast<unsigned>(rng.uniformInt(4));
            coord.row = static_cast<unsigned>(100 + rng.uniformInt(8));
            coord.colBlock = static_cast<unsigned>(rng.uniformInt(64));
            const uint64_t action = rng.uniformInt(100);
            if (action < 45) {
                uint8_t got[64];
                uint8_t want[64];
                const EccStatus status = controller.readLine(coord, got);
                ASSERT_EQ(status, reference.readLine(coord, want));
                ASSERT_EQ(std::memcmp(got, want, 64), 0) << "step " << step;
            } else if (action < 95) {
                uint8_t data[64];
                for (auto &byte : data)
                    byte = static_cast<uint8_t>(rng.uniformInt(256));
                controller.write(controller.addressMap().encode(coord), data);
                reference.write(coord, data);
            } else if (action < 98) {
                // A new fault, or a repeat of an earlier report.
                const FaultRecord fault =
                    !reported.empty() && rng.uniformInt(3) == 0
                        ? reported[rng.uniformInt(reported.size())]
                        : randomFault(rng);
                reported.push_back(fault);
                const bool repaired = controller.reportFault(fault);
                ASSERT_EQ(repaired, reference.reportFault(fault));
                failed_repairs += repaired ? 0 : 1;
            } else if (!reported.empty()) {
                // The scrubber's path: repair known damage.
                const FaultRecord &fault =
                    reported[rng.uniformInt(reported.size())];
                ASSERT_EQ(controller.requestRepair(fault),
                          reference.requestRepair(fault));
            }
        }
        expectSameStats(controller.stats(), reference.stats);
        expectSameRemapStore(controller, reference);
        EXPECT_GT(controller.stats().remapMerges, 0u);
        EXPECT_GT(controller.stats().duplicateFaults, 0u);
        if (c.budget.maxLines < 1000) {
            EXPECT_GT(failed_repairs, 0u);
        }
        if (c.erasure) {
            EXPECT_GT(controller.stats().erasureDecodes, 0u);
        }
    }
}

TEST(ControllerDifferential, ScrubberRepairsMergeEveryRepairedDevice)
{
    // Damage the controller is not told about, found and repaired by
    // the scrubber (requestRepair): afterwards each read of a flagged
    // bank merges exactly the devices unitRepaired() names among all
    // 18, and returns the data last written.
    ControllerConfig config;
    config.budget = RepairBudget{4, 32768};
    RelaxFaultController controller(config);
    FaultScrubber scrubber(controller);
    Rng rng(77);
    std::vector<std::array<uint8_t, 64>> shadow;
    for (uint32_t row = 500; row < 504; ++row) {
        for (unsigned col = 0; col < 64; ++col) {
            std::array<uint8_t, 64> data;
            for (auto &byte : data)
                byte = static_cast<uint8_t>(rng.uniformInt(256));
            controller.write(controller.addressMap().encode(
                                 LineCoord{0, 0, 1, row, col}),
                             data.data());
            shadow.push_back(data);
        }
    }
    FaultSet &faults = const_cast<FaultSet &>(controller.faults());
    faults.addFault(makeFault(rowRegion(1, 500), 0, 6));
    faults.addFault(makeFault(rowRegion(1, 502), 0, 11));
    faults.addFault(makeFault(sliceRegion(1, 501, 7, 0xff00), 0, 3));
    scrubber.scrub(0, 0, 1, 500, 4);
    ASSERT_GT(scrubber.inferAndRepair().faultsRepaired, 0u);

    for (uint32_t row = 500; row < 504; ++row) {
        for (unsigned col = 0; col < 64; ++col) {
            unsigned expected = 0;
            RemapUnit unit{0, 0, 1, row, static_cast<uint16_t>(col / 16)};
            for (unsigned d = 0; d < 18; ++d) {
                unit.device = d;
                expected += controller.repair().unitRepaired(unit) ? 1 : 0;
            }
            const uint64_t before = controller.stats().remapMerges;
            uint8_t out[64];
            ASSERT_NE(controller.readLine(LineCoord{0, 0, 1, row, col}, out),
                      EccStatus::Uncorrectable);
            EXPECT_EQ(controller.stats().remapMerges - before, expected)
                << "row " << row << " col " << col;
            ASSERT_EQ(std::memcmp(out,
                                  shadow[(row - 500) * 64 + col].data(), 64),
                      0);
        }
    }
    EXPECT_GT(controller.stats().remapMerges, 0u);
}

} // namespace
} // namespace relaxfault
