#include "dram/address_map.h"

#include <algorithm>

#include "common/bitops.h"
#include "common/log.h"

namespace relaxfault {
namespace {

/**
 * Invert an n x n GF(2) bit matrix in place (row i is a bit mask over
 * columns). Returns false if singular.
 */
bool
invertGf2(std::vector<uint64_t> &rows, unsigned n)
{
    std::vector<uint64_t> inverse(n);
    for (unsigned i = 0; i < n; ++i)
        inverse[i] = uint64_t{1} << i;
    for (unsigned col = 0; col < n; ++col) {
        unsigned pivot = col;
        while (pivot < n && !((rows[pivot] >> col) & 1))
            ++pivot;
        if (pivot == n)
            return false;
        std::swap(rows[col], rows[pivot]);
        std::swap(inverse[col], inverse[pivot]);
        for (unsigned r = 0; r < n; ++r) {
            if (r != col && ((rows[r] >> col) & 1)) {
                rows[r] ^= rows[col];
                inverse[r] ^= inverse[col];
            }
        }
    }
    rows = std::move(inverse);
    return true;
}

/**
 * Fill byte-sliced lookup tables for the GF(2) map whose rows are
 * @p masks (output bit i = parity(input & masks[i])): table[k][b] is the
 * output for input byte k == b, shifted left by @p shift. Input bits at
 * or above masks.size() map to nothing, so callers may index with bytes
 * that carry stray high bits.
 */
void
fillSlices(uint64_t (*table)[256], unsigned slices,
           const std::vector<uint64_t> &masks, unsigned shift)
{
    const unsigned n = static_cast<unsigned>(masks.size());
    for (unsigned k = 0; k < slices; ++k) {
        // column[i]: the output bits input bit 8k + i feeds.
        uint64_t column[8] = {};
        for (unsigned i = 0; i < 8 && 8 * k + i < n; ++i) {
            for (unsigned out = 0; out < n; ++out)
                column[i] |= ((masks[out] >> (8 * k + i)) & 1) << out;
            column[i] <<= shift;
        }
        table[k][0] = 0;
        for (unsigned b = 1; b < 256; ++b)
            table[k][b] = table[k][b & (b - 1)] ^
                          column[__builtin_ctz(b)];
    }
}

/** How many column-block bits sit below the bank field (6 of 8). */
constexpr unsigned kColLowBits = 6;

/**
 * Field LSB positions within the line address (the Fig. 7a base layout
 * every scheme builder starts from): channel | col-low | bank |
 * col-high | rank | row.
 */
struct FieldLayout
{
    unsigned colLowBits;
    unsigned colHighBits;
    unsigned channelLsb;
    unsigned colLowLsb;
    unsigned bankLsb;
    unsigned colHighLsb;
    unsigned rankLsb;
    unsigned rowLsb;

    explicit FieldLayout(const DramGeometry &geometry)
    {
        const unsigned col_bits = geometry.colBlockBits();
        colLowBits = std::min(kColLowBits, col_bits);
        colHighBits = col_bits - colLowBits;
        unsigned lsb = 0;
        channelLsb = lsb;
        lsb += geometry.channelBits();
        colLowLsb = lsb;
        lsb += colLowBits;
        bankLsb = lsb;
        lsb += geometry.bankBits();
        colHighLsb = lsb;
        lsb += colHighBits;
        rankLsb = lsb;
        lsb += geometry.rankBits();
        rowLsb = lsb;
    }

    /** Line-address bit holding row bit @p i, or 0 if out of range. */
    uint64_t
    rowBit(const DramGeometry &geometry, unsigned i) const
    {
        return i < geometry.rowBits() ? uint64_t{1} << (rowLsb + i) : 0;
    }

    /** Line-address bit holding high-column bit @p i, or 0. */
    uint64_t
    colHighBit(unsigned i) const
    {
        return i < colHighBits ? uint64_t{1} << (colHighLsb + i) : 0;
    }
};

/** Identity masks of the base layout: no hashing, pure field split. */
std::vector<uint64_t>
baseLayoutMasks(const DramGeometry &geometry, const FieldLayout &layout)
{
    std::vector<uint64_t> masks;
    const unsigned line_bits =
        geometry.paBits() - geometry.offsetBits();
    masks.reserve(line_bits);
    for (unsigned i = 0; i < geometry.channelBits(); ++i)
        masks.push_back(uint64_t{1} << (layout.channelLsb + i));
    for (unsigned i = 0; i < geometry.rankBits(); ++i)
        masks.push_back(uint64_t{1} << (layout.rankLsb + i));
    for (unsigned i = 0; i < geometry.bankBits(); ++i)
        masks.push_back(uint64_t{1} << (layout.bankLsb + i));
    for (unsigned i = 0; i < geometry.rowBits(); ++i)
        masks.push_back(uint64_t{1} << (layout.rowLsb + i));
    for (unsigned i = 0; i < geometry.colBlockBits(); ++i)
        masks.push_back(i < layout.colLowBits
                            ? uint64_t{1} << (layout.colLowLsb + i)
                            : uint64_t{1}
                                  << (layout.colHighLsb +
                                      (i - layout.colLowBits)));
    return masks;
}

/** Canonical coordinate-bit index of a hashed field's bit i. */
unsigned
channelBitIndex(const DramGeometry &, unsigned i)
{
    return i;
}

unsigned
rankBitIndex(const DramGeometry &geometry, unsigned i)
{
    return geometry.channelBits() + i;
}

unsigned
bankBitIndex(const DramGeometry &geometry, unsigned i)
{
    return geometry.channelBits() + geometry.rankBits() + i;
}

/**
 * Scheme builders. Real controllers hash fixed absolute bit positions;
 * the simulator sweeps geometries, so each builder places the published
 * XOR structure relative to the geometry's field layout (same base
 * layout as Fig. 7a) and taps only row / high-column bits, which keeps
 * every instance invertible for any power-of-two shape.
 */

/**
 * The paper's Fig. 7a layout, optionally with Zhang et al.'s bank
 * permutation: bank = bank field XOR low row bits.
 */
std::vector<uint64_t>
fig7aMasks(const DramGeometry &geometry, bool bank_xor_hash)
{
    const FieldLayout layout(geometry);
    std::vector<uint64_t> masks = baseLayoutMasks(geometry, layout);
    if (bank_xor_hash) {
        for (unsigned i = 0; i < geometry.bankBits(); ++i)
            masks[bankBitIndex(geometry, i)] ^= layout.rowBit(geometry, i);
    }
    return masks;
}

/**
 * Intel Ivy Bridge-style functions (DRAMDig Table 3): the channel is a
 * wide XOR over row and high-column bits and each bank bit XORs two row
 * bits; ranks ride a two-tap row hash.
 */
std::vector<uint64_t>
intelIvyMasks(const DramGeometry &geometry)
{
    const FieldLayout layout(geometry);
    std::vector<uint64_t> masks = baseLayoutMasks(geometry, layout);
    for (unsigned i = 0; i < geometry.channelBits(); ++i)
        masks[channelBitIndex(geometry, i)] ^=
            layout.rowBit(geometry, i) ^ layout.rowBit(geometry, i + 2) ^
            layout.rowBit(geometry, i + 4) ^ layout.colHighBit(i);
    for (unsigned i = 0; i < geometry.rankBits(); ++i)
        masks[rankBitIndex(geometry, i)] ^=
            layout.rowBit(geometry, i) ^ layout.rowBit(geometry, i + 3);
    for (unsigned i = 0; i < geometry.bankBits(); ++i)
        masks[bankBitIndex(geometry, i)] ^=
            layout.rowBit(geometry, i) ^
            layout.rowBit(geometry, i + geometry.bankBits());
    return masks;
}

/**
 * Intel Haswell-style functions (DRAMDig Table 3): same structure as
 * Ivy with shifted tap positions (the controller generation moved the
 * hash functions up the address).
 */
std::vector<uint64_t>
intelHaswellMasks(const DramGeometry &geometry)
{
    const FieldLayout layout(geometry);
    std::vector<uint64_t> masks = baseLayoutMasks(geometry, layout);
    for (unsigned i = 0; i < geometry.channelBits(); ++i)
        masks[channelBitIndex(geometry, i)] ^=
            layout.rowBit(geometry, i + 1) ^
            layout.rowBit(geometry, i + 3) ^
            layout.rowBit(geometry, i + 5) ^ layout.colHighBit(i + 1);
    for (unsigned i = 0; i < geometry.rankBits(); ++i)
        masks[rankBitIndex(geometry, i)] ^=
            layout.rowBit(geometry, i + 1) ^
            layout.rowBit(geometry, i + 4);
    for (unsigned i = 0; i < geometry.bankBits(); ++i)
        masks[bankBitIndex(geometry, i)] ^=
            layout.rowBit(geometry, i + 2) ^
            layout.rowBit(geometry, i + 2 + geometry.bankBits());
    return masks;
}

/**
 * AMD Zen-style functions (Knock-Knock Sec. 5): bank bits are full
 * stride-XOR reductions of the row (and high column), the widest
 * published hash family.
 */
std::vector<uint64_t>
amdZenMasks(const DramGeometry &geometry)
{
    const FieldLayout layout(geometry);
    std::vector<uint64_t> masks = baseLayoutMasks(geometry, layout);
    // Full stride-XOR reductions: every row (and high-column) bit
    // congruent to the bank bit modulo the field width participates.
    for (unsigned i = 0; i < geometry.bankBits(); ++i) {
        uint64_t &mask = masks[bankBitIndex(geometry, i)];
        for (unsigned j = i; j < geometry.rowBits();
             j += geometry.bankBits())
            mask ^= layout.rowBit(geometry, j);
        for (unsigned j = i; j < layout.colHighBits;
             j += geometry.bankBits())
            mask ^= layout.colHighBit(j);
    }
    const unsigned channel_stride =
        geometry.channelBits() > 0 ? geometry.channelBits() : 1;
    for (unsigned i = 0; i < geometry.channelBits(); ++i) {
        uint64_t &mask = masks[channelBitIndex(geometry, i)];
        for (unsigned j = i; j < geometry.rowBits(); j += channel_stride)
            mask ^= layout.rowBit(geometry, j);
    }
    for (unsigned i = 0; i < geometry.rankBits(); ++i)
        masks[rankBitIndex(geometry, i)] ^=
            layout.rowBit(geometry, i + 2) ^ layout.colHighBit(i);
    return masks;
}

/** The registry: one row per scheme name, "fig7a" (the default) first. */
struct RegisteredScheme
{
    const char *name;
    std::vector<uint64_t> (*masks)(const DramGeometry &);
};

constexpr RegisteredScheme kSchemes[] = {
    {"fig7a", [](const DramGeometry &g) { return fig7aMasks(g, true); }},
    {"fig7a_nohash",
     [](const DramGeometry &g) { return fig7aMasks(g, false); }},
    {"intel_ivy", intelIvyMasks},
    {"intel_haswell", intelHaswellMasks},
    {"amd_zen", amdZenMasks},
};

} // namespace

CoordBitLayout::CoordBitLayout(const DramGeometry &geometry)
    : channelMask(maskBits(geometry.channelBits())),
      rankMask(maskBits(geometry.rankBits())),
      bankMask(maskBits(geometry.bankBits())),
      rowMask(maskBits(geometry.rowBits())),
      colMask(maskBits(geometry.colBlockBits())),
      rankLsb(geometry.channelBits()),
      bankLsb(rankLsb + geometry.rankBits()),
      rowLsb(bankLsb + geometry.bankBits()),
      colLsb(rowLsb + geometry.rowBits())
{
}

uint64_t
packCoordBits(const DramGeometry &geometry, const LineCoord &coord)
{
    return CoordBitLayout(geometry).pack(coord);
}

LineCoord
unpackCoordBits(const DramGeometry &geometry, uint64_t bits)
{
    return CoordBitLayout(geometry).unpack(bits);
}

DramAddressMap::Tables::Tables(const DramGeometry &shape,
                               XorScheme scheme)
    : layout(shape), offsetBits(shape.offsetBits()), geometry(shape),
      name(std::move(scheme.name)),
      decodeMasks(std::move(scheme.decodeMasks))
{
    const unsigned n = geometry.paBits() - offsetBits;
    if (n > 64)
        panic("DramAddressMap: line-address space wider than 64 bits");
    if (decodeMasks.size() != n)
        panic("DramAddressMap '" + name + "': " +
              std::to_string(decodeMasks.size()) + " masks for " +
              std::to_string(n) + " line-address bits");
    for (const uint64_t mask : decodeMasks) {
        if (mask & ~maskBits(n))
            panic("DramAddressMap '" + name +
                  "': mask references bits outside the line address");
    }
    encodeMasks = decodeMasks;
    if (!invertGf2(encodeMasks, n))
        panic("DramAddressMap '" + name +
              "': scheme is not invertible (not a bijection)");
    slices = (n + 7) / 8;
    fillSlices(decode, slices, decodeMasks, 0);
    fillSlices(encode, slices, encodeMasks, offsetBits);
}

DramAddressMap::DramAddressMap(const DramGeometry &geometry,
                               XorScheme scheme)
    : tables_(std::make_shared<const Tables>(geometry, std::move(scheme)))
{
}

const std::vector<std::string> &
addressMappingNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> list;
        for (const RegisteredScheme &scheme : kSchemes)
            list.emplace_back(scheme.name);
        return list;
    }();
    return names;
}

bool
isAddressMappingName(const std::string &name)
{
    const auto &names = addressMappingNames();
    return std::find(names.begin(), names.end(), name) != names.end();
}

std::string
addressMappingNamesHint()
{
    std::string hint;
    for (const std::string &known : addressMappingNames()) {
        if (!hint.empty())
            hint += " | ";
        hint += known;
    }
    return hint;
}

DramAddressMap
makeAddressMap(const std::string &name, const DramGeometry &geometry)
{
    // Building the tables takes microseconds, and simulators ask for the
    // same map on every set-up, so each thread builds a (name, geometry)
    // once and hands out copies that share its tables.
    thread_local std::vector<DramAddressMap> built;
    for (const DramAddressMap &map : built) {
        if (map.name() == name && map.geometry() == geometry)
            return map;
    }
    for (const RegisteredScheme &scheme : kSchemes) {
        if (name == scheme.name) {
            built.emplace_back(geometry,
                               XorScheme{name, scheme.masks(geometry)});
            return built.back();
        }
    }
    panic("unknown address mapping '" + name + "' (expected " +
          addressMappingNamesHint() + ")");
}

} // namespace relaxfault
