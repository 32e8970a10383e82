/**
 * @file
 * Cache shape description and set-index computation.
 *
 * Two indexing schemes are provided (paper Fig. 7b and Sec. 3.2): the
 * canonical contiguous tag/index/offset split, and the XOR-hashed variant
 * (Gonzalez et al.) that folds tag bits into the set index. FreeFault's
 * repair coverage depends heavily on which one the LLC uses (Fig. 8);
 * RelaxFault brings its own mapping and barely cares.
 */

#ifndef RELAXFAULT_CACHE_CACHE_GEOMETRY_H
#define RELAXFAULT_CACHE_CACHE_GEOMETRY_H

#include <cstdint>

#include "common/bitops.h"

namespace relaxfault {

/** Shape of one cache level. */
struct CacheGeometry
{
    uint64_t sizeBytes = 8ull * 1024 * 1024;
    unsigned ways = 16;
    unsigned lineBytes = 64;

    uint64_t lines() const { return sizeBytes / lineBytes; }
    uint64_t sets() const { return lines() / ways; }
    unsigned setBits() const { return indexBits(sets()); }
    unsigned offsetBits() const { return indexBits(lineBytes); }
};

/** Physical-address to (set, tag) translator for normal cache accesses. */
class SetIndexer
{
  public:
    SetIndexer(const CacheGeometry &geometry, bool xor_hash)
        : geometry_(geometry), xorHash_(xor_hash),
          setBits_(geometry.setBits()), offsetBits_(geometry.offsetBits())
    {
    }

    /** Set index of a physical address. */
    uint64_t setIndex(uint64_t pa) const
    {
        const uint64_t line = pa >> offsetBits_;
        const uint64_t index = line & maskBits(setBits_);
        if (!xorHash_)
            return index;
        // Fold the tag into the index so that addresses differing only
        // in high-order (tag) bits land in different sets.
        return index ^ xorFold(line >> setBits_, setBits_);
    }

    /** Tag of a physical address (all bits above the index field). */
    uint64_t tag(uint64_t pa) const
    {
        return pa >> (offsetBits_ + setBits_);
    }

    bool xorHash() const { return xorHash_; }
    const CacheGeometry &geometry() const { return geometry_; }
    /** geometry().setBits() and offsetBits(), computed once. */
    unsigned setBits() const { return setBits_; }
    unsigned offsetBits() const { return offsetBits_; }

  private:
    CacheGeometry geometry_;
    bool xorHash_;
    unsigned setBits_;
    unsigned offsetBits_;
};

} // namespace relaxfault

#endif // RELAXFAULT_CACHE_CACHE_GEOMETRY_H
