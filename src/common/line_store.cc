#include "common/line_store.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>

#include "common/log.h"

namespace relaxfault {

namespace {

/** Largest slab chunk, well under glibc's 128 KiB mmap threshold. */
constexpr size_t kChunkBytes = 96 * 1024;

/** Index size at the first store. */
constexpr uint64_t kMinIndexEntries = 16;

} // namespace

LineStore::LineStore(unsigned line_bytes) : lineBytes_(line_bytes)
{
    if (line_bytes == 0 || line_bytes > kChunkBytes)
        fatal("LineStore: line size must be 1.." +
              std::to_string(kChunkBytes) + " bytes");
    chunkShift_ = 0;
    while ((size_t{2} << chunkShift_) * line_bytes <= kChunkBytes)
        ++chunkShift_;
    chunkMask_ = (uint64_t{1} << chunkShift_) - 1;
}

uint8_t *
LineStore::store(uint64_t key, const uint8_t *bytes)
{
    if (key == kEmptyKey)
        fatal("LineStore: the all-ones key is reserved");
    uint8_t *stored = find(key);
    if (stored != nullptr) {
        std::memcpy(stored, bytes, lineBytes_);
        return stored;
    }
    if (4 * (size_ + 1) > 3 * index_.size())
        rehash(index_.empty() ? kMinIndexEntries : 2 * index_.size());
    uint64_t i = bucket(key);
    while (index_[i].key != kEmptyKey)
        i = (i + 1) & indexMask_;
    if ((size_ & chunkMask_) == 0)
        chunks_.push_back(std::make_unique_for_overwrite<uint8_t[]>(
            size_t{lineBytes_} << chunkShift_));
    index_[i] = Entry{key, size_};
    stored = line(size_++);
    std::memcpy(stored, bytes, lineBytes_);
    return stored;
}

void
LineStore::rehash(uint64_t capacity)
{
    const std::vector<Entry> old = std::move(index_);
    index_.assign(capacity, Entry{kEmptyKey, 0});
    indexMask_ = capacity - 1;
    indexShift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    for (const Entry &entry : old) {
        if (entry.key == kEmptyKey)
            continue;
        uint64_t i = bucket(entry.key);
        while (index_[i].key != kEmptyKey)
            i = (i + 1) & indexMask_;
        index_[i] = entry;
    }
}

std::vector<uint64_t>
LineStore::sortedKeys() const
{
    std::vector<uint64_t> keys;
    keys.reserve(size_);
    for (const Entry &entry : index_) {
        if (entry.key != kEmptyKey)
            keys.push_back(entry.key);
    }
    std::sort(keys.begin(), keys.end());
    return keys;
}

} // namespace relaxfault
