/**
 * @file
 * Physical-address <-> DRAM-coordinate mapping.
 *
 * Modern controllers swizzle physical-address bits so that consecutive
 * lines rotate across channels and banks while staying in an open row as
 * long as possible. The paper's running example (Fig. 7a) is the
 * Nehalem-style layout, from LSB to MSB of the line address:
 *
 *   channel | column-low | bank | column-high | rank | row
 *
 * With an 8MiB 16-way LLC all column-block bits land inside the LLC set
 * index, so the lines of one DRAM row occupy distinct sets even without
 * LLC set hashing — while a column fault's lines (row bits vary, column
 * bits fixed) pile up, which is exactly the asymmetry Fig. 8 shows for
 * FreeFault. The paper's memory controller adds the permutation-based
 * bank hash of Zhang et al. (bank XOR row-low, Table 3).
 *
 * That layout, hash included, is GF(2)-linear: every DRAM-coordinate bit
 * is the XOR of a mask of line-address bits. So are the Intel and AMD
 * functions DRAMDig and Knock-Knock recover from real parts. One class,
 * `DramAddressMap`, therefore runs every scheme: it is built from an
 * `XorScheme` (one decode mask per coordinate bit), inverts it once by
 * Gauss-Jordan elimination over GF(2), and precomputes byte-sliced
 * lookup tables for both directions. `makeAddressMap` builds any
 * registered scheme by name: `fig7a` (the default, bit-identical to the
 * seed), `fig7a_nohash`, `intel_ivy`, `intel_haswell`, `amd_zen`.
 *
 * Coordinate bits pack LSB-first as: channel | rank | bank | row | col.
 * Masks index line-address bits, i.e. bit 0 of `pa >> offsetBits`.
 */

#ifndef RELAXFAULT_DRAM_ADDRESS_MAP_H
#define RELAXFAULT_DRAM_ADDRESS_MAP_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dram/geometry.h"

namespace relaxfault {

/**
 * The canonical coordinate-bit vector of a geometry
 * (channel | rank | bank | row | col, LSB-first). Packing truncates each
 * field to its width.
 */
struct CoordBitLayout
{
    explicit CoordBitLayout(const DramGeometry &geometry);

    uint64_t pack(const LineCoord &coord) const
    {
        return (coord.channel & channelMask) |
               ((coord.rank & rankMask) << rankLsb) |
               ((coord.bank & bankMask) << bankLsb) |
               ((coord.row & rowMask) << rowLsb) |
               ((coord.colBlock & colMask) << colLsb);
    }

    LineCoord unpack(uint64_t bits) const
    {
        LineCoord coord;
        coord.channel = static_cast<unsigned>(bits & channelMask);
        coord.rank = static_cast<unsigned>((bits >> rankLsb) & rankMask);
        coord.bank = static_cast<unsigned>((bits >> bankLsb) & bankMask);
        coord.row = static_cast<unsigned>((bits >> rowLsb) & rowMask);
        coord.colBlock = static_cast<unsigned>((bits >> colLsb) & colMask);
        return coord;
    }

    uint64_t channelMask, rankMask, bankMask, rowMask, colMask;
    unsigned rankLsb, bankLsb, rowLsb, colLsb;
};

/** Pack a coordinate into its canonical bit vector. */
uint64_t packCoordBits(const DramGeometry &geometry,
                       const LineCoord &coord);

/** Inverse of packCoordBits. */
LineCoord unpackCoordBits(const DramGeometry &geometry, uint64_t bits);

/**
 * An XOR-bit scheme: decodeMasks[i] is the set of line-address bits
 * whose parity yields canonical coordinate bit i. Must hold exactly
 * `lineBits` masks and describe an invertible GF(2) matrix.
 */
struct XorScheme
{
    std::string name;
    std::vector<uint64_t> decodeMasks;
};

/**
 * The physical-address <-> DRAM-coordinate map: any invertible
 * GF(2)-linear XOR scheme. Construction panics on a malformed or
 * non-invertible scheme, so every map is a bijection.
 *
 * Decode XORs one 256-entry table per byte of the line address into the
 * packed coordinate bits and unpacks them; encode packs the coordinate
 * and XORs one table per byte of the packed bits into the address. The
 * tables are immutable and shared, so copies are cheap and mechanisms
 * hold maps by value.
 *
 * Contract: every map is GF(2)-affine in the column, i.e. for any
 * coordinate c with column block k,
 *
 *   encode(c) == encode(c with colBlock 0) ^ encode({k}) ^ encode({})
 *
 * where {k} is the all-zero coordinate with column block k. A linear
 * map meets it trivially; FreeFault's repair walk relies on it to
 * encode one line per (bank, row) and derive the row's other lines
 * from a per-column delta.
 */
class DramAddressMap
{
  public:
    /** Panics if the scheme is malformed or not invertible. */
    DramAddressMap(const DramGeometry &geometry, XorScheme scheme);

    /** Translate DRAM coordinates to a full physical (byte) address. */
    uint64_t encode(const LineCoord &coord) const
    {
        const Tables &tables = *tables_;
        const uint64_t bits = tables.layout.pack(coord);
        uint64_t pa = 0;
        for (unsigned k = 0; k < tables.slices; ++k)
            pa ^= tables.encode[k][(bits >> (8 * k)) & 0xff];
        return pa;
    }

    /** Translate a physical address to DRAM coordinates. */
    LineCoord decode(uint64_t pa) const
    {
        const Tables &tables = *tables_;
        const uint64_t line = pa >> tables.offsetBits;
        uint64_t bits = 0;
        for (unsigned k = 0; k < tables.slices; ++k)
            bits ^= tables.decode[k][(line >> (8 * k)) & 0xff];
        return tables.layout.unpack(bits);
    }

    const DramGeometry &geometry() const { return tables_->geometry; }
    const std::string &name() const { return tables_->name; }

    /** Ground-truth masks (coordinate bit -> line-address bits). */
    const std::vector<uint64_t> &decodeMasks() const
    {
        return tables_->decodeMasks;
    }

    /** Inverse masks (line-address bit -> coordinate bits). */
    const std::vector<uint64_t> &encodeMasks() const
    {
        return tables_->encodeMasks;
    }

  private:
    /** A 64-bit line address has at most 8 byte slices. */
    static constexpr unsigned kMaxSlices = 8;

    struct Tables
    {
        Tables(const DramGeometry &geometry, XorScheme scheme);

        // The fields decode/encode read come first.
        CoordBitLayout layout;
        unsigned offsetBits;
        unsigned slices;  ///< ceil(lineBits / 8).
        /** decode[k][b]: packed coordinate bits of line byte k == b. */
        uint64_t decode[kMaxSlices][256];
        /** encode[k][b]: byte address of packed-coordinate byte k == b. */
        uint64_t encode[kMaxSlices][256];

        DramGeometry geometry;
        std::string name;
        std::vector<uint64_t> decodeMasks;
        std::vector<uint64_t> encodeMasks;
    };

    std::shared_ptr<const Tables> tables_;
};

/** Registered scheme names, in registry order ("fig7a" first). */
const std::vector<std::string> &addressMappingNames();

/** True if @p name is registered. */
bool isAddressMappingName(const std::string &name);

/** "fig7a | fig7a_nohash | ..." for CLI diagnostics. */
std::string addressMappingNamesHint();

/**
 * Build a registered scheme by name; panics (with the known-names list)
 * on an unknown name — CLI layers validate first via
 * `isAddressMappingName`. Each thread builds a (name, geometry) once;
 * later calls return copies that share its tables.
 */
DramAddressMap makeAddressMap(const std::string &name,
                              const DramGeometry &geometry);

} // namespace relaxfault

#endif // RELAXFAULT_DRAM_ADDRESS_MAP_H
