/**
 * @file
 * Sparse store of fixed-size byte lines under 64-bit keys.
 *
 * Two layers, each flat:
 *  - the index: a power-of-two table of (key, line number) entries,
 *    probed linearly from a multiplicative hash of the key (no modulo),
 *    and doubled before it is more than 3/4 full;
 *  - the slab: the lines themselves, numbered in insertion order and
 *    kept in fixed-size chunks. Each chunk stays below glibc's 128 KiB
 *    mmap threshold, and a chunk never moves once allocated, so growth
 *    copies only the index and a line's address is stable until the
 *    store is destroyed.
 *
 * A lookup is a hash, one index load (plus a neighbour or two on a
 * collision) and one slab load; there is no per-line heap allocation.
 * Lines are never removed.
 */

#ifndef RELAXFAULT_COMMON_LINE_STORE_H
#define RELAXFAULT_COMMON_LINE_STORE_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace relaxfault {

/** Insert-only map from 64-bit keys to fixed-size byte lines. */
class LineStore
{
  public:
    /** Reserved: the index marks empty entries with it. */
    static constexpr uint64_t kEmptyKey = ~uint64_t{0};

    explicit LineStore(unsigned line_bytes);

    /** Number of lines stored. */
    size_t size() const { return size_; }

    /** The line stored under @p key, or nullptr. */
    const uint8_t *find(uint64_t key) const
    {
        if (size_ == 0)
            return nullptr;
        for (uint64_t i = bucket(key);; i = (i + 1) & indexMask_) {
            const Entry &entry = index_[i];
            if (entry.key == key)
                return line(entry.line);
            if (entry.key == kEmptyKey)
                return nullptr;
        }
    }

    uint8_t *find(uint64_t key)
    {
        return const_cast<uint8_t *>(std::as_const(*this).find(key));
    }

    /**
     * Copy one line of bytes from @p bytes into the line under @p key,
     * adding the line if absent; returns the stored line. @p key must
     * not be kEmptyKey.
     */
    uint8_t *store(uint64_t key, const uint8_t *bytes);

    /** Every stored key, in ascending order. */
    std::vector<uint64_t> sortedKeys() const;

  private:
    struct Entry
    {
        uint64_t key;
        uint64_t line;  ///< Slab line number (insertion order).
    };

    uint64_t bucket(uint64_t key) const
    {
        return (key * 0x9e3779b97f4a7c15ull) >> indexShift_;
    }

    uint8_t *line(uint64_t number) const
    {
        return chunks_[number >> chunkShift_].get() +
               (number & chunkMask_) * lineBytes_;
    }

    /** Rebuild the index at @p capacity entries (a power of two). */
    void rehash(uint64_t capacity);

    unsigned lineBytes_;
    unsigned chunkShift_;  ///< log2 of the lines per slab chunk.
    uint64_t chunkMask_;
    std::vector<Entry> index_;
    uint64_t indexMask_ = 0;
    unsigned indexShift_ = 64;
    std::vector<std::unique_ptr<uint8_t[]>> chunks_;
    size_t size_ = 0;
};

} // namespace relaxfault

#endif // RELAXFAULT_COMMON_LINE_STORE_H
