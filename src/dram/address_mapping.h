/**
 * @file
 * Pluggable physical-address <-> DRAM-coordinate mapping strategies.
 *
 * RelaxFault's coalescing quality (paper Figs. 7a/8) depends on how the
 * memory controller swizzles physical-address bits into DRAM
 * coordinates. The seed implemented exactly one Nehalem-style layout;
 * this layer makes the mapping a runtime-selectable strategy:
 *
 *  - `AddressMapping` is the abstract bidirectional translator;
 *  - `Fig7aMapping` (address_map.h) keeps the seed scheme bit-identical;
 *  - `XorAddressMapping` runs any GF(2)-linear XOR-bit scheme: each
 *    DRAM-coordinate bit is the XOR of a mask of line-address bits, the
 *    shape DRAMDig and Knock-Knock recover from real Intel/AMD parts.
 *
 * An XOR scheme is described by one decode mask per coordinate bit.
 * Decoding is a parity product per bit; encoding uses the inverse bit
 * matrix, computed once at construction by Gauss-Jordan elimination
 * over GF(2) (construction panics on a non-invertible scheme, so every
 * registered mapping is a bijection by construction).
 *
 * Coordinate bits pack LSB-first as: channel | rank | bank | row | col.
 * Masks index line-address bits, i.e. bit 0 of `pa >> offsetBits`.
 */

#ifndef RELAXFAULT_DRAM_ADDRESS_MAPPING_H
#define RELAXFAULT_DRAM_ADDRESS_MAPPING_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dram/geometry.h"

namespace relaxfault {

/**
 * Abstract bidirectional physical-address/DRAM-coordinate strategy.
 *
 * Contract: every strategy is GF(2)-affine in the column, i.e. for any
 * coordinate c with column block k,
 *
 *   encode(c) == encode(c with colBlock 0) ^ encode({k}) ^ encode({})
 *
 * where {k} is the all-zero coordinate with column block k. Every XOR
 * scheme is linear, and Fig. 7a's bank hash XORs row bits only, so each
 * registered mapping meets it; FreeFault's repair walk relies on it to
 * encode one line per (bank, row) and derive the row's other lines
 * from a per-column delta.
 */
class AddressMapping
{
  public:
    AddressMapping(const DramGeometry &geometry, std::string name)
        : geometry_(geometry), name_(std::move(name))
    {
    }
    virtual ~AddressMapping() = default;

    /** Translate DRAM coordinates to a full physical (byte) address. */
    virtual uint64_t encode(const LineCoord &coord) const = 0;

    /** Translate a physical address to DRAM coordinates. */
    virtual LineCoord decode(uint64_t pa) const = 0;

    const DramGeometry &geometry() const { return geometry_; }
    const std::string &name() const { return name_; }

    /** Line-address width: PA bits above the 64B line offset. */
    unsigned lineBits() const
    {
        return geometry_.paBits() - geometry_.offsetBits();
    }

  protected:
    DramGeometry geometry_;
    std::string name_;
};

/**
 * Pack a coordinate into its canonical bit vector
 * (channel | rank | bank | row | col, LSB-first).
 */
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

/** Generic XOR-scheme mapping (any invertible GF(2) swizzle). */
class XorAddressMapping : public AddressMapping
{
  public:
    /** Panics if the scheme is malformed or not invertible. */
    XorAddressMapping(const DramGeometry &geometry, XorScheme scheme);

    uint64_t encode(const LineCoord &coord) const override;
    LineCoord decode(uint64_t pa) const override;

    /** Ground-truth masks (coordinate bit -> line-address bits). */
    const std::vector<uint64_t> &decodeMasks() const
    {
        return decodeMasks_;
    }

    /** Inverse masks (line-address bit -> coordinate bits). */
    const std::vector<uint64_t> &encodeMasks() const
    {
        return encodeMasks_;
    }

  private:
    std::vector<uint64_t> decodeMasks_;
    std::vector<uint64_t> encodeMasks_;
};

/**
 * Scheme builders. Real controllers hash fixed absolute bit positions;
 * the simulator sweeps geometries, so each builder places the published
 * XOR structure relative to the geometry's field layout (same base
 * layout as Fig. 7a) and taps only row / high-column bits, which keeps
 * every instance invertible for any power-of-two shape.
 */

/** The seed Fig. 7a layout expressed as a generic XOR scheme. */
XorScheme fig7aXorScheme(const DramGeometry &geometry,
                         bool bank_xor_hash = true,
                         unsigned col_low_bits = 6);

/**
 * Intel Ivy Bridge-style functions (DRAMDig Table 3): the channel is a
 * wide XOR over row and high-column bits and each bank bit XORs two row
 * bits; ranks ride a two-tap row hash.
 */
XorScheme intelIvyScheme(const DramGeometry &geometry);

/**
 * Intel Haswell-style functions (DRAMDig Table 3): same structure as
 * Ivy with shifted tap positions (the controller generation moved the
 * hash functions up the address).
 */
XorScheme intelHaswellScheme(const DramGeometry &geometry);

/**
 * AMD Zen-style functions (Knock-Knock Sec. 5): bank bits are full
 * stride-XOR reductions of the row (and high column), the widest
 * published hash family.
 */
XorScheme amdZenScheme(const DramGeometry &geometry);

/** Registered strategy names, in registry order ("fig7a" first). */
const std::vector<std::string> &addressMappingNames();

/** True if @p name is registered. */
bool isAddressMappingName(const std::string &name);

/** "fig7a | fig7a_nohash | ..." for CLI diagnostics. */
std::string addressMappingNamesHint();

/**
 * Instantiate a registered strategy; null if @p name is unknown.
 * Defined in address_map.cc, next to the Fig. 7a implementation.
 */
std::shared_ptr<const AddressMapping>
makeAddressMapping(const std::string &name, const DramGeometry &geometry);

} // namespace relaxfault

#endif // RELAXFAULT_DRAM_ADDRESS_MAPPING_H
