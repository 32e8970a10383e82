/**
 * @file
 * The RelaxFault repair-specific LLC address mapping (paper Fig. 7c).
 *
 * A remap unit is 64B of a *single device's* data: 16 consecutive column
 * blocks (4B each) of one row of one bank of one device. The mapping is
 * designed so that correlated fault patterns land in distinct sets by
 * construction:
 *
 *  - the 4 column-group bits and the low row bits form the set index, so
 *    a full row fault (16 units, varying column group) and a column or
 *    bank fault spanning many rows of a subarray (varying low row bits)
 *    spread across distinct sets deterministically;
 *  - bank, device ID, rank/channel, and high row bits form the tag, so
 *    units from different devices or banks coexist in a set under
 *    different tags.
 *
 * An optional XOR fold of the tag into the index (the "hash" variant of
 * Fig. 8) decorrelates the residual collisions between faults.
 */

#ifndef RELAXFAULT_REPAIR_RELAXFAULT_MAP_H
#define RELAXFAULT_REPAIR_RELAXFAULT_MAP_H

#include <cstdint>
#include <vector>

#include "cache/cache_geometry.h"
#include "dram/geometry.h"

namespace relaxfault {

/** One RelaxFault remap unit: 64B of one device's data. */
struct RemapUnit
{
    unsigned dimm = 0;
    unsigned device = 0;
    unsigned bank = 0;
    uint32_t row = 0;
    uint16_t colGroup = 0;  ///< colBlock / (64B / 4B-per-block) = /16.

    bool operator==(const RemapUnit &) const = default;
};

/** LLC location (set + repair-space tag) of a remap unit. */
struct RemapLocation
{
    uint64_t set = 0;
    uint64_t tag = 0;

    bool operator==(const RemapLocation &) const = default;

    /** Pack into one 64-bit key for hashing. */
    uint64_t key(unsigned set_bits) const
    {
        return (tag << set_bits) | set;
    }
};

/** Fig. 7c translator from remap units to LLC locations. */
class RelaxFaultMap
{
  public:
    /** How remap units are placed across LLC sets. */
    enum class IndexMode : uint8_t
    {
        /** Fig. 7c: set index = {row-low, column-group}; correlated
         *  fault patterns spread deterministically. */
        Structured,
        /** Structured plus an XOR fold of the tag (Fig. 8 "hash"). */
        StructuredFolded,
        /** Ablation: coalescing only — placement is a pure hash of the
         *  unit address, so correlated patterns spread only
         *  statistically (birthday collisions return). */
        HashOnly,
    };

    /**
     * @param dram Memory geometry (column-group and row widths).
     * @param llc LLC geometry (set count).
     * @param xor_fold Fold the tag into the set index (Fig. 8 "hash").
     */
    RelaxFaultMap(const DramGeometry &dram, const CacheGeometry &llc,
                  bool xor_fold = true);

    /** Explicit-mode constructor (ablation studies). */
    RelaxFaultMap(const DramGeometry &dram, const CacheGeometry &llc,
                  IndexMode mode);

    /** Map a remap unit to its LLC set and repair tag. */
    RemapLocation locate(const RemapUnit &unit) const;

    /**
     * Visit the location of @p unit at each column group of @p groups,
     * in order, as visit(set, key), where key is RemapLocation::key. A
     * false from the visitor stops the walk, which then returns false.
     * The structured modes locate the row once: the column group is the
     * low field of the set index and no tag bit depends on it, so each
     * unit's set and key are the row's group-0 ones XOR the group.
     * HashOnly's set is a hash of the group, so it locates every unit.
     */
    template <typename Visit>
    bool forEachGroup(RemapUnit unit, const std::vector<uint16_t> &groups,
                      Visit &&visit) const
    {
        if (mode_ == IndexMode::HashOnly) {
            for (const auto group : groups) {
                unit.colGroup = group;
                const RemapLocation loc = locate(unit);
                if (!visit(loc.set, loc.key(setBits_)))
                    return false;
            }
            return true;
        }
        unit.colGroup = 0;
        const RemapLocation row = locate(unit);
        const uint64_t key = row.key(setBits_);
        for (const auto group : groups) {
            if (!visit(row.set ^ group, key ^ group))
                return false;
        }
        return true;
    }

    /** Inverse of locate(); used by tests to prove the map is injective.*/
    RemapUnit invert(const RemapLocation &location) const;

    unsigned setBits() const { return setBits_; }
    unsigned colGroupBits() const { return colGroupBits_; }
    unsigned rowLowBits() const { return rowLowBits_; }

    /** Width of the repair tag (rowHigh | bank | device | dimm). */
    unsigned tagBits() const
    {
        return rowHighBits_ + dram_.bankBits() + dram_.deviceBits() +
               indexBits(dram_.dimmsPerNode());
    }

    /** Geometry the map was built for (audit range checks). */
    const DramGeometry &geometry() const { return dram_; }
    IndexMode indexMode() const { return mode_; }
    bool xorFoldEnabled() const
    {
        return mode_ == IndexMode::StructuredFolded;
    }

  private:
    uint64_t tagOf(const RemapUnit &unit, uint64_t row_high) const;

    DramGeometry dram_;
    IndexMode mode_;
    unsigned setBits_;
    unsigned colGroupBits_;
    unsigned rowLowBits_;
    unsigned rowHighBits_;
};

} // namespace relaxfault

#endif // RELAXFAULT_REPAIR_RELAXFAULT_MAP_H
