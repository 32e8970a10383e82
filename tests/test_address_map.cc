/**
 * @file
 * The mapping differential-test layer (ctest -L mapping).
 *
 * Pins the pluggable address-mapping subsystem from three directions:
 *
 *  1. Properties: every registered scheme is a bijection over fuzzed
 *     geometry shapes (decode(encode(c)) == c and encode(decode(pa)) ==
 *     pa), and its table-driven decode/encode equals two references
 *     kept in this file: the per-bit parity product of its XOR masks,
 *     and, for fig7a/fig7a_nohash, the seed's Fig. 7a field arithmetic
 *     (bank XOR row-low permutation included).
 *  2. Seed pins: frozen golden encode values keep every registered
 *     scheme bit-identical across refactors.
 *  3. Inference differential: map_infer's GF(2) recovery must exactly
 *     reproduce the masks of every registered scheme (oracle and
 *     observation-log modes), and a corrupted log must fail loudly
 *     rather than yield wrong masks.
 *
 * Plus the flag-surface contract: `--mapping` parses only where
 * documented, dies with the known-names list on a typo, and is fatal
 * (never warn-ignored) on benches whose results bypass the address map.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bench_util.h"
#include "campaign_bench.h"
#include "common/bitops.h"
#include "common/cli.h"
#include "common/rng.h"
#include "dram/address_map.h"
#include "dram/map_infer.h"

namespace relaxfault {
namespace {

/** Preset shapes plus fuzzed power-of-two variations. */
std::vector<DramGeometry>
fuzzedGeometries()
{
    std::vector<DramGeometry> shapes = {
        DramGeometry::ddr3Dimm(),
        DramGeometry::ddr4Dimm(),
        DramGeometry::lpddr4(),
        DramGeometry::hbmStack(),
    };
    Rng rng(0xface);
    const unsigned channels[] = {1, 2, 4, 8};
    const unsigned ranks[] = {1, 2, 4};
    const unsigned banks[] = {4, 8, 16};
    const unsigned rows[] = {4096, 16384, 65536};
    const unsigned cols[] = {32, 64, 256, 512};
    for (unsigned i = 0; i < 12; ++i) {
        DramGeometry geometry;
        geometry.channels = channels[rng.uniformInt(4)];
        geometry.ranksPerChannel = ranks[rng.uniformInt(3)];
        geometry.banksPerDevice = banks[rng.uniformInt(3)];
        geometry.rowsPerBank = rows[rng.uniformInt(3)];
        geometry.colBlocksPerRow = cols[rng.uniformInt(4)];
        shapes.push_back(geometry);
    }
    return shapes;
}

LineCoord
randomCoord(const DramGeometry &geometry, Rng &rng)
{
    LineCoord coord;
    coord.channel = static_cast<unsigned>(rng.uniformInt(geometry.channels));
    coord.rank =
        static_cast<unsigned>(rng.uniformInt(geometry.ranksPerChannel));
    coord.bank =
        static_cast<unsigned>(rng.uniformInt(geometry.banksPerDevice));
    coord.row = static_cast<unsigned>(rng.uniformInt(geometry.rowsPerBank));
    coord.colBlock =
        static_cast<unsigned>(rng.uniformInt(geometry.colBlocksPerRow));
    return coord;
}

uint64_t
randomLinePa(const DramGeometry &geometry, Rng &rng)
{
    return rng.uniformInt(geometry.nodeBytes() / geometry.lineBytes) *
           geometry.lineBytes;
}

/**
 * Reference 1: the seed's Fig. 7a field arithmetic (channel | col-low |
 * bank | col-high | rank | row from the line offset up, 6 column bits
 * below the bank field), with Zhang et al.'s bank XOR row-low
 * permutation when @p hash is set.
 */
struct SeedFig7a
{
    SeedFig7a(const DramGeometry &geometry, bool hash)
        : g(geometry), hash(hash)
    {
        colLowBits = std::min(6u, g.colBlockBits());
        colHighBits = g.colBlockBits() - colLowBits;
        channelLsb = g.offsetBits();
        colLowLsb = channelLsb + g.channelBits();
        bankLsb = colLowLsb + colLowBits;
        colHighLsb = bankLsb + g.bankBits();
        rankLsb = colHighLsb + colHighBits;
        rowLsb = rankLsb + g.rankBits();
    }

    unsigned permuteBank(unsigned bank, unsigned row) const
    {
        return hash ? bank ^ (row & maskBits(g.bankBits())) : bank;
    }

    uint64_t encode(const LineCoord &coord) const
    {
        uint64_t pa = 0;
        pa = depositBits(pa, channelLsb, g.channelBits(), coord.channel);
        pa = depositBits(pa, colLowLsb, colLowBits,
                         coord.colBlock & maskBits(colLowBits));
        pa = depositBits(pa, bankLsb, g.bankBits(),
                         permuteBank(coord.bank, coord.row));
        pa = depositBits(pa, rankLsb, g.rankBits(), coord.rank);
        pa = depositBits(pa, colHighLsb, colHighBits,
                         coord.colBlock >> colLowBits);
        pa = depositBits(pa, rowLsb, g.rowBits(), coord.row);
        return pa;
    }

    LineCoord decode(uint64_t pa) const
    {
        LineCoord coord;
        coord.channel = static_cast<unsigned>(
            extractBits(pa, channelLsb, g.channelBits()));
        const auto col_low =
            static_cast<unsigned>(extractBits(pa, colLowLsb, colLowBits));
        const auto bank_field = static_cast<unsigned>(
            extractBits(pa, bankLsb, g.bankBits()));
        coord.rank =
            static_cast<unsigned>(extractBits(pa, rankLsb, g.rankBits()));
        const auto col_high = static_cast<unsigned>(
            extractBits(pa, colHighLsb, colHighBits));
        coord.row =
            static_cast<unsigned>(extractBits(pa, rowLsb, g.rowBits()));
        coord.colBlock = (col_high << colLowBits) | col_low;
        coord.bank = permuteBank(bank_field, coord.row);
        return coord;
    }

    DramGeometry g;
    bool hash;
    unsigned colLowBits, colHighBits, channelLsb, colLowLsb, bankLsb,
        colHighLsb, rankLsb, rowLsb;
};

/** Reference 2: per-bit parity products over a map's XOR masks. */
LineCoord
parityDecode(const DramAddressMap &map, uint64_t pa)
{
    const uint64_t line = pa >> map.geometry().offsetBits();
    uint64_t bits = 0;
    for (unsigned i = 0; i < map.decodeMasks().size(); ++i)
        bits |= static_cast<uint64_t>(
                    __builtin_parityll(line & map.decodeMasks()[i]))
                << i;
    return unpackCoordBits(map.geometry(), bits);
}

uint64_t
parityEncode(const DramAddressMap &map, const LineCoord &coord)
{
    const uint64_t bits = packCoordBits(map.geometry(), coord);
    uint64_t line = 0;
    for (unsigned j = 0; j < map.encodeMasks().size(); ++j)
        line |= static_cast<uint64_t>(
                    __builtin_parityll(bits & map.encodeMasks()[j]))
                << j;
    return line << map.geometry().offsetBits();
}

// ---------------------------------------------------------------------
// 1. Properties over every registered mapping x fuzzed geometries.

TEST(MappingProperty, EveryMappingIsABijectionOverFuzzedGeometries)
{
    Rng rng(42);
    for (const DramGeometry &geometry : fuzzedGeometries()) {
        for (const std::string &name : addressMappingNames()) {
            const DramAddressMap map = makeAddressMap(name, geometry);
            EXPECT_EQ(map.name(), name);
            for (unsigned i = 0; i < 200; ++i) {
                const LineCoord coord = randomCoord(geometry, rng);
                const uint64_t pa = map.encode(coord);
                EXPECT_LT(pa, geometry.nodeBytes()) << name;
                EXPECT_EQ(pa % geometry.lineBytes, 0u) << name;
                EXPECT_EQ(map.decode(pa), coord) << name;

                const uint64_t line_pa = randomLinePa(geometry, rng);
                EXPECT_EQ(map.encode(map.decode(line_pa)), line_pa)
                    << name;
            }
        }
    }
}

TEST(AddressMap, EveryRegistrySchemeIsAffine)
{
    // DramAddressMap's contract, which FreeFault's row-hoisted walk
    // relies on: a line's address is its row's column-0 address XOR the
    // column's delta encode({k}) ^ encode({}).
    Rng rng(1206);
    for (const DramGeometry &geometry : fuzzedGeometries()) {
        for (const std::string &name : addressMappingNames()) {
            const DramAddressMap map = makeAddressMap(name, geometry);
            const uint64_t origin = map.encode(LineCoord{});
            for (unsigned i = 0; i < 200; ++i) {
                const LineCoord coord = randomCoord(geometry, rng);
                LineCoord row_start = coord;
                row_start.colBlock = 0;
                LineCoord column;
                column.colBlock = coord.colBlock;
                ASSERT_EQ(map.encode(coord), map.encode(row_start) ^
                                                 map.encode(column) ^ origin)
                    << name << " bank " << coord.bank << " row "
                    << coord.row << " col " << coord.colBlock;
            }
        }
    }
}

TEST(MappingProperty, PackUnpackCoordBitsRoundTrips)
{
    Rng rng(7);
    for (const DramGeometry &geometry : fuzzedGeometries()) {
        for (unsigned i = 0; i < 100; ++i) {
            const LineCoord coord = randomCoord(geometry, rng);
            EXPECT_EQ(unpackCoordBits(geometry,
                                      packCoordBits(geometry, coord)),
                      coord);
        }
    }
}

TEST(MappingProperty, TablesMatchParityAndSeedReferences)
{
    // Every scheme's byte-sliced tables must compute the parity product
    // of its masks (decode) and of their GF(2) inverse (encode), and
    // fig7a/fig7a_nohash must also be the seed's field arithmetic, the
    // function map_infer treats as mask recovery. Addresses carry stray
    // bits in the line offset and above paBits(), which the seed
    // ignores, and coordinates carry bits above each field's width,
    // which the seed truncates: both pin the tables' index masking.
    Rng rng(11);
    for (const DramGeometry &geometry : fuzzedGeometries()) {
        const uint64_t stray_high = ~maskBits(geometry.paBits());
        for (const std::string &name : addressMappingNames()) {
            const DramAddressMap map = makeAddressMap(name, geometry);
            ASSERT_EQ(map.encodeMasks().size(), map.decodeMasks().size());
            const bool is_fig7a = name == "fig7a" || name == "fig7a_nohash";
            const SeedFig7a seed(geometry, name == "fig7a");
            for (unsigned i = 0; i < 200; ++i) {
                const uint64_t pa = randomLinePa(geometry, rng) |
                                    (rng.next() & stray_high) |
                                    rng.uniformInt(geometry.lineBytes);
                const LineCoord decoded = map.decode(pa);
                ASSERT_EQ(decoded, parityDecode(map, pa)) << name;
                if (is_fig7a) {
                    ASSERT_EQ(decoded, seed.decode(pa)) << name;
                }

                LineCoord coord = randomCoord(geometry, rng);
                if (i % 2 == 1) {
                    coord.channel = static_cast<unsigned>(rng.next());
                    coord.rank = static_cast<unsigned>(rng.next());
                    coord.bank = static_cast<unsigned>(rng.next());
                    coord.row = static_cast<unsigned>(rng.next());
                    coord.colBlock = static_cast<unsigned>(rng.next());
                }
                const uint64_t encoded = map.encode(coord);
                ASSERT_EQ(encoded, parityEncode(map, coord)) << name;
                if (is_fig7a) {
                    ASSERT_EQ(encoded, seed.encode(coord)) << name;
                }
                // The parity encode is the inverse of the parity decode.
                ASSERT_EQ(packCoordBits(geometry,
                                        parityDecode(map, encoded)),
                          packCoordBits(geometry, coord))
                    << name;
            }
        }
    }
}

TEST(MappingProperty, NonDefaultSchemesDifferFromFig7a)
{
    // The premise of --mapping changing results: each alternative
    // scheme must actually decode some addresses differently.
    const DramGeometry geometry;
    const DramAddressMap fig7a = makeAddressMap("fig7a", geometry);
    for (const std::string &name : addressMappingNames()) {
        if (name == "fig7a")
            continue;
        const DramAddressMap other = makeAddressMap(name, geometry);
        Rng rng(13);
        bool differs = false;
        for (unsigned i = 0; i < 256 && !differs; ++i) {
            const uint64_t pa = randomLinePa(geometry, rng);
            differs = !(other.decode(pa) == fig7a.decode(pa));
        }
        EXPECT_TRUE(differs) << name;
    }
}

TEST(MappingProperty, CopiesShareTheTables)
{
    const DramGeometry geometry;
    const DramAddressMap map = makeAddressMap("amd_zen", geometry);
    const DramAddressMap copy = map;  // NOLINT: the copy is the test.
    EXPECT_EQ(copy.decodeMasks().data(), map.decodeMasks().data());
    EXPECT_EQ(copy.name(), "amd_zen");
}

// ---------------------------------------------------------------------
// 2. Seed pins: frozen golden values for every registered mapping.

TEST(MappingSeedPin, Fig7aGoldenEncodeValues)
{
    // Frozen from the seed implementation (default DDR3 geometry). Any
    // change here is a break of the bit-identity contract that the
    // fig08/fig12 CI gates also enforce end-to-end.
    const DramGeometry geometry;
    const DramAddressMap hash = makeAddressMap("fig7a", geometry);
    const DramAddressMap nohash = makeAddressMap("fig7a_nohash", geometry);
    const struct
    {
        LineCoord coord;
        uint64_t hashPa;
        uint64_t nohashPa;
    } golden[] = {
        {{0, 0, 0, 0, 0}, 0x0, 0x0},
        {{1, 0, 2, 5, 3}, 0x51c340, 0x508340},
        {{3, 1, 7, 65535, 255}, 0xffffe3fc0, 0xfffffffc0},
        {{2, 1, 4, 12345, 100}, 0x3039b6480, 0x3039b2480},
        {{0, 1, 1, 1, 1}, 0x180100, 0x184100},
    };
    for (const auto &pin : golden) {
        EXPECT_EQ(hash.encode(pin.coord), pin.hashPa);
        EXPECT_EQ(nohash.encode(pin.coord), pin.nohashPa);
        EXPECT_EQ(hash.decode(pin.hashPa), pin.coord);
        EXPECT_EQ(nohash.decode(pin.nohashPa), pin.coord);
    }
}

TEST(MappingSeedPin, XorSchemeGoldenEncodeValues)
{
    // Frozen from the per-bit parity implementation the tables replaced
    // (default DDR3 geometry, the same coordinates as the Fig. 7a pins).
    // The inference tests take both sides from one decode, so only these
    // pins catch a consistent table bug that stays a bijection.
    const DramGeometry geometry;
    const LineCoord coords[] = {
        {0, 0, 0, 0, 0},         {1, 0, 2, 5, 3},
        {3, 1, 7, 65535, 255},   {2, 1, 4, 12345, 100},
        {0, 1, 1, 1, 1},
    };
    const struct
    {
        const char *name;
        uint64_t pa[5];
    } golden[] = {
        {"intel_ivy",
         {0x0, 0x59c340, 0xfffffffc0, 0x3039aa4c0, 0x100140}},
        {"intel_haswell",
         {0x0, 0x50c3c0, 0xfffffff40, 0x30392e400, 0x184100}},
        {"amd_zen", {0x0, 0x59c340, 0xffffebfc0, 0x303922440, 0x180140}},
    };
    for (const auto &pin : golden) {
        const DramAddressMap map = makeAddressMap(pin.name, geometry);
        for (unsigned i = 0; i < 5; ++i) {
            EXPECT_EQ(map.encode(coords[i]), pin.pa[i]) << pin.name;
            EXPECT_EQ(map.decode(pin.pa[i]), coords[i]) << pin.name;
        }
    }
}

TEST(MappingSeedPin, DefaultConstructionIsFig7a)
{
    const DramGeometry geometry;
    EXPECT_EQ(makeAddressMap("fig7a", geometry).name(), "fig7a");
    EXPECT_EQ(makeAddressMap("fig7a_nohash", geometry).name(),
              "fig7a_nohash");
    EXPECT_EQ(addressMappingNames().front(), "fig7a");
    LifetimeConfig config;
    EXPECT_EQ(config.mapping, "fig7a");
}

// ---------------------------------------------------------------------
// 3. Inference differential: recovery must be exact for every scheme.

TEST(MapInferDifferential, OracleRecoveryIsExactForEveryScheme)
{
    const DramGeometry geometries[] = {
        DramGeometry::ddr3Dimm(),
        DramGeometry::ddr4Dimm(),
        DramGeometry::lpddr4(),
        DramGeometry::hbmStack(),
    };
    for (const DramGeometry &geometry : geometries) {
        for (const std::string &name : addressMappingNames()) {
            const DramAddressMap map = makeAddressMap(name, geometry);
            const DecodeOracle oracle = [&map](uint64_t pa) {
                return map.decode(pa);
            };
            const MapInference inference =
                inferMapping(oracle, geometry, /*seed=*/99);
            ASSERT_TRUE(inference.ok) << name << ": " << inference.error;
            EXPECT_EQ(inference.affineOffset, 0u) << name;
            EXPECT_EQ(inference.masks, basisDecodeMasks(oracle, geometry))
                << name;
            EXPECT_TRUE(verifyMasks(inference.masks,
                                    inference.affineOffset, oracle,
                                    geometry, /*seed=*/3))
                << name;

            // The recovered masks must rebuild into a mapping that
            // reproduces encode AND decode — closing the differential
            // loop through the inverse-matrix path too.
            const DramAddressMap rebuilt =
                mappingFromMasks("inferred", geometry, inference.masks);
            Rng rng(5);
            for (unsigned i = 0; i < 200; ++i) {
                const uint64_t pa = randomLinePa(geometry, rng);
                const LineCoord coord = map.decode(pa);
                EXPECT_EQ(rebuilt.decode(pa), coord) << name;
                EXPECT_EQ(rebuilt.encode(coord), pa) << name;
            }
        }
    }
}

std::vector<MapObservation>
sampleObservations(const DramAddressMap &map, unsigned count,
                   uint64_t seed)
{
    Rng rng(seed);
    std::vector<MapObservation> observations;
    observations.reserve(count);
    for (unsigned i = 0; i < count; ++i) {
        MapObservation obs;
        obs.pa = randomLinePa(map.geometry(), rng);
        obs.coord = map.decode(obs.pa);
        observations.push_back(obs);
    }
    return observations;
}

TEST(MapInferDifferential, ObservationLogRecoveryMatchesGroundTruth)
{
    for (const std::string &name : addressMappingNames()) {
        const DramGeometry geometry;
        const DramAddressMap map = makeAddressMap(name, geometry);
        const std::vector<MapObservation> observations =
            sampleObservations(map, 200, 17);
        const MapInference inference =
            inferFromObservations(observations, geometry);
        ASSERT_TRUE(inference.ok) << name << ": " << inference.error;
        EXPECT_EQ(inference.affineOffset, 0u) << name;
        const DecodeOracle oracle = [&map](uint64_t pa) {
            return map.decode(pa);
        };
        EXPECT_EQ(inference.masks, basisDecodeMasks(oracle, geometry))
            << name;
    }
}

TEST(MapInferDifferential, CorruptedObservationFailsLoudly)
{
    const DramGeometry geometry;
    const DramAddressMap map = makeAddressMap("intel_haswell", geometry);
    std::vector<MapObservation> observations =
        sampleObservations(map, 200, 23);
    observations[50].coord.bank ^= 1;  // One flipped bit in the log.
    const MapInference inference =
        inferFromObservations(observations, geometry);
    EXPECT_FALSE(inference.ok);
    EXPECT_FALSE(inference.error.empty());
    EXPECT_TRUE(inference.masks.empty())
        << "wrong masks must never be emitted";
}

TEST(MapInferDifferential, UnderdeterminedLogFailsLoudly)
{
    const DramGeometry geometry;
    const DramAddressMap map = makeAddressMap("fig7a", geometry);
    const MapInference inference =
        inferFromObservations(sampleObservations(map, 5, 29), geometry);
    EXPECT_FALSE(inference.ok);
    EXPECT_NE(inference.error.find("underdetermined"), std::string::npos)
        << inference.error;
}

TEST(MapInferDifferential, OutOfRangeObservationIsRejected)
{
    const DramGeometry geometry;
    const DramAddressMap map = makeAddressMap("fig7a", geometry);
    std::vector<MapObservation> observations =
        sampleObservations(map, 100, 31);
    observations[3].coord.channel = geometry.channels;  // One past range.
    EXPECT_FALSE(inferFromObservations(observations, geometry).ok);
}

TEST(MapInferDifferential, NonLinearOracleIsRefused)
{
    // decode composed with a non-linear tweak must be detected either
    // during elimination or by the pair-probe linearity test — never
    // silently fitted.
    const DramGeometry geometry;
    const DramAddressMap map = makeAddressMap("fig7a", geometry);
    const DecodeOracle oracle = [&](uint64_t pa) {
        LineCoord coord = map.decode(pa);
        if ((coord.row & 3u) == 3u)  // 1/4 of the space is off-model.
            coord.bank ^= 1;
        return coord;
    };
    const MapInference inference = inferMapping(oracle, geometry, 0);
    EXPECT_FALSE(inference.ok);
    EXPECT_FALSE(inference.error.empty());
    EXPECT_TRUE(inference.masks.empty());
}

// ---------------------------------------------------------------------
// 4. Registry and flag-surface contract.

TEST(MappingRegistry, NamesAreRegisteredAndHintListsThem)
{
    const std::vector<std::string> expected = {
        "fig7a", "fig7a_nohash", "intel_ivy", "intel_haswell", "amd_zen"};
    EXPECT_EQ(addressMappingNames(), expected);
    for (const std::string &name : expected) {
        EXPECT_TRUE(isAddressMappingName(name));
        EXPECT_NE(addressMappingNamesHint().find(name),
                  std::string::npos);
        EXPECT_EQ(makeAddressMap(name, DramGeometry{}).name(), name);
    }
    EXPECT_FALSE(isAddressMappingName("nehalem"));
}

TEST(MappingFlag, ParsesDefaultAndExplicitNames)
{
    {
        const char *argv[] = {"prog"};
        const CliOptions options(1, const_cast<char **>(argv),
                                 bench::kLifetimeBenchFlags);
        EXPECT_EQ(bench::mappingFlag(options), "fig7a");
    }
    {
        const char *argv[] = {"prog", "--mapping=amd_zen"};
        const CliOptions options(2, const_cast<char **>(argv),
                                 bench::kLifetimeBenchFlags);
        EXPECT_EQ(bench::mappingFlag(options), "amd_zen");
    }
}

TEST(MappingFlagDeathTest, UnmappedBenchRejectsMappingFlag)
{
    // A bench whose results never flow through a DRAM address map
    // leaves "mapping" off its one flag list, so the strict parser
    // rejects --mapping there.
    for (const auto *known :
         {&bench::kFleetScaleFlags, &bench::kCoverageBenchFlags}) {
        for (const std::string &flag : *known)
            EXPECT_NE(flag, "mapping");
        const char *argv[] = {"prog", "--mapping=fig7a"};
        EXPECT_EXIT(CliOptions(2, const_cast<char **>(argv), *known),
                    ::testing::ExitedWithCode(1),
                    "unknown option --mapping");
    }
}

TEST(MappingFlagDeathTest, TypoDiesWithKnownNamesList)
{
    const char *argv[] = {"prog", "--mapping=intel_ivy_bridge"};
    const CliOptions options(2, const_cast<char **>(argv),
                             bench::kLifetimeBenchFlags);
    EXPECT_EXIT(bench::mappingFlag(options),
                ::testing::ExitedWithCode(1),
                "is not a mapping scheme.*fig7a_nohash");
}

TEST(MappingFlagDeathTest, UnknownNameInMakeAddressMapPanics)
{
    EXPECT_DEATH(makeAddressMap("nehalem", DramGeometry{}),
                 "unknown address mapping 'nehalem'");
}

TEST(MappingFlagDeathTest, NonInvertibleXorSchemePanics)
{
    const DramGeometry geometry;
    XorScheme scheme{"degenerate",
                     makeAddressMap("fig7a", geometry).decodeMasks()};
    scheme.decodeMasks[1] = scheme.decodeMasks[0];  // Two equal rows.
    EXPECT_DEATH(DramAddressMap(geometry, scheme), "not invertible");
}

} // namespace
} // namespace relaxfault
