/**
 * @file
 * Tag-only set-associative cache with true-LRU replacement and way
 * locking, used by the performance simulator.
 *
 * Way locking models LLC capacity dedicated to repair: locked ways are
 * unavailable to normal data (paper Sec. 4.2 evaluates whole locked ways
 * as a pessimistic stand-in, plus a 100KiB randomly-placed configuration;
 * both are supported).
 *
 * Layout (DESIGN §2 "Cache model layout"): each set keeps its 32-bit
 * tags in one 64 B-aligned host line, plus valid and dirty way masks
 * and a recency stack of 4-bit way numbers, MRU in the low nibble. A
 * hit is one compare per 4 lanes; replacement reads the stack. At most
 * 16 ways, and a tag wider than 32 bits is a fatal error, never
 * truncated.
 */

#ifndef RELAXFAULT_CACHE_CACHE_MODEL_H
#define RELAXFAULT_CACHE_CACHE_MODEL_H

#include <cstdint>
#include <vector>

#include "cache/cache_geometry.h"
#include "common/rng.h"

namespace relaxfault {

/** Outcome of one cache access. */
struct CacheAccessResult
{
    bool hit = false;
    bool evictedDirty = false;   ///< A dirty victim was written back.
    uint64_t evictedPa = 0;      ///< Line address of the victim.
};

/**
 * Bit i set iff row[i] == @p tag, for i < @p lanes (a multiple of 4;
 * @p row 16-byte aligned). SSE2 where the target has it, else the
 * scalar loop below.
 */
uint32_t tagMatchMask(const uint32_t *row, unsigned lanes, uint32_t tag);

/** Portable reference for tagMatchMask. */
uint32_t tagMatchMaskScalar(const uint32_t *row, unsigned lanes,
                            uint32_t tag);

/** LRU set-associative cache tracking tags and dirty bits only. */
class CacheModel
{
  public:
    /** Widest set the 4-bit recency stack can order. */
    static constexpr unsigned kMaxWays = 16;

    /**
     * Fatal if @p geometry has more than kMaxWays ways. Tags are stored
     * in 32 bits: see addressBitsLimit.
     */
    CacheModel(const CacheGeometry &geometry, bool xor_hash);

    /**
     * Widest physical address whose tag fits the 32-bit tag row. Callers
     * that know their address width check it against this once, at
     * construction; an access above it is fatal.
     */
    static unsigned addressBitsLimit(const CacheGeometry &geometry)
    {
        return geometry.offsetBits() + geometry.setBits() + 32;
    }

    /**
     * Access one line; allocates on miss (write-allocate) and returns
     * the victim, if any. @p pa is a byte address.
     */
    CacheAccessResult access(uint64_t pa, bool write);

    /** Probe without allocating or updating LRU. */
    bool contains(uint64_t pa) const;

    /** Invalidate one line if present; returns true if it was dirty. */
    bool invalidate(uint64_t pa);

    /** Lock @p count ways (uniformly) in every set. */
    void lockWaysPerSet(unsigned count);

    /** Lock @p total_lines lines placed uniformly at random. */
    void lockRandomLines(uint64_t total_lines, Rng &rng);

    /** Remove all locks and invalidate all contents. */
    void reset();

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }
    uint64_t writebacks() const { return writebacks_; }
    const CacheGeometry &geometry() const { return geometry_; }
    const SetIndexer &indexer() const { return indexer_; }

    /** Ways usable by normal data in @p set. */
    unsigned availableWays(uint64_t set) const
    {
        return geometry_.ways - sets_[set].locked;
    }

  private:
    /**
     * Replacement state of one set. Locked ways are the tail
     * [usable, ways) and are never valid. `stack` nibble i is the way
     * with the i-th most recent use among the usable ways; nibbles at
     * i >= usable are unused.
     */
    struct SetState
    {
        uint64_t stack = 0;
        uint16_t valid = 0;
        uint16_t dirty = 0;
        uint8_t locked = 0;
    };

    /**
     * One set's tags in one 64 B-aligned host line. A lookup scans the
     * first rowLanes_ lanes and masks the result with the valid mask,
     * so the tags of invalid ways and of padding lanes never count.
     */
    struct alignas(64) TagRow
    {
        uint32_t lane[kMaxWays] = {};
    };

    uint32_t tagOf(uint64_t pa) const;
    const uint32_t *row(uint64_t set) const
    {
        return tags_[set].lane;
    }
    /** Bitmask of ways in @p set holding @p tag. */
    uint32_t hitMask(uint64_t set, uint32_t tag) const
    {
        return tagMatchMask(row(set), rowLanes_, tag) & sets_[set].valid;
    }
    uint64_t lineAddress(uint64_t set, uint64_t tag) const;
    /** Set @p set's lock count, invalidating ways that become locked. */
    void setLocked(SetState &state, unsigned locked);

    CacheGeometry geometry_;
    SetIndexer indexer_;
    unsigned rowLanes_;          ///< Ways rounded up to 4 lanes.
    uint64_t initialStack_;      ///< Ways 0..ways-1, way 0 most recent.
    std::vector<TagRow> tags_;
    std::vector<SetState> sets_;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t writebacks_ = 0;
};

} // namespace relaxfault

#endif // RELAXFAULT_CACHE_CACHE_MODEL_H
