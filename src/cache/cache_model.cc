#include "cache/cache_model.h"

#include <algorithm>
#include <bit>
#include <string>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

#include "common/log.h"

namespace relaxfault {

namespace {

/** Nibble i = i for every way: the order a cleared set fills in. */
constexpr uint64_t kIdentityStack = 0xFEDCBA9876543210ull;

constexpr uint64_t kNibbleOnes = 0x1111111111111111ull;
constexpr uint64_t kNibbleHighs = 0x8888888888888888ull;

/**
 * Position of the lowest nibble of @p stack equal to @p way. The classic
 * zero-nibble test can flag nibbles above the first real zero (borrow),
 * never below it, so the lowest flag is exact.
 */
inline unsigned
stackPosition(uint64_t stack, unsigned way)
{
    const uint64_t diff = stack ^ (kNibbleOnes * way);
    const uint64_t zero = (diff - kNibbleOnes) & ~diff & kNibbleHighs;
    return static_cast<unsigned>(std::countr_zero(zero)) / 4;
}

/** Move the way at stack position @p pos to position 0 (MRU). */
inline uint64_t
moveToFront(uint64_t stack, unsigned pos)
{
    const unsigned shift = 4 * pos;
    const uint64_t below = (uint64_t{1} << shift) - 1;
    const uint64_t way = (stack >> shift) & 0xF;
    const uint64_t above = stack & ~(below | (uint64_t{0xF} << shift));
    return above | ((stack & below) << 4) | way;
}

[[noreturn, gnu::cold, gnu::noinline]] void
tagTooWide(uint64_t pa)
{
    fatal("CacheModel: address " + std::to_string(pa) +
          " has a tag wider than 32 bits");
}

} // namespace

uint32_t
tagMatchMaskScalar(const uint32_t *row, unsigned lanes, uint32_t tag)
{
    uint32_t mask = 0;
    for (unsigned i = 0; i < lanes; ++i)
        mask |= static_cast<uint32_t>(row[i] == tag) << i;
    return mask;
}

uint32_t
tagMatchMask(const uint32_t *row, unsigned lanes, uint32_t tag)
{
#ifdef __SSE2__
    const __m128i key = _mm_set1_epi32(static_cast<int>(tag));
    uint32_t mask = 0;
    for (unsigned i = 0; i < lanes; i += 4) {
        const __m128i lane = _mm_load_si128(
            reinterpret_cast<const __m128i *>(row + i));
        const __m128i equal = _mm_cmpeq_epi32(lane, key);
        mask |= static_cast<uint32_t>(
                    _mm_movemask_ps(_mm_castsi128_ps(equal)))
            << i;
    }
    return mask;
#else
    return tagMatchMaskScalar(row, lanes, tag);
#endif
}

CacheModel::CacheModel(const CacheGeometry &geometry, bool xor_hash)
    : geometry_(geometry), indexer_(geometry, xor_hash),
      rowLanes_((geometry.ways + 3) & ~3u),
      initialStack_(kIdentityStack & maskBits(4 * geometry.ways)),
      tags_(geometry.sets()), sets_(geometry.sets())
{
    if (geometry_.ways > kMaxWays)
        fatal("CacheModel: " + std::to_string(geometry_.ways) +
              " ways; the recency stack orders at most " +
              std::to_string(kMaxWays));
    reset();
}

uint32_t
CacheModel::tagOf(uint64_t pa) const
{
    const uint64_t tag = indexer_.tag(pa);
    if (tag > UINT32_MAX) [[unlikely]]
        tagTooWide(pa);
    return static_cast<uint32_t>(tag);
}

uint64_t
CacheModel::lineAddress(uint64_t set, uint64_t tag) const
{
    const unsigned set_bits = indexer_.setBits();
    uint64_t low = set;
    if (indexer_.xorHash())
        low ^= xorFold(tag, set_bits);
    return ((tag << set_bits) | low) << indexer_.offsetBits();
}

CacheAccessResult
CacheModel::access(uint64_t pa, bool write)
{
    CacheAccessResult result;
    const uint64_t set = indexer_.setIndex(pa);
    const uint32_t tag = tagOf(pa);
    SetState &state = sets_[set];

    if (const uint32_t hit = hitMask(set, tag)) {
        const unsigned way = static_cast<unsigned>(std::countr_zero(hit));
        state.stack = moveToFront(state.stack,
                                  stackPosition(state.stack, way));
        state.dirty |= static_cast<uint16_t>(unsigned{write} << way);
        ++hits_;
        result.hit = true;
        return result;
    }
    ++misses_;
    const unsigned usable = geometry_.ways - state.locked;
    if (usable == 0)
        return result;  // Fully locked set: the access bypasses the cache.

    // Victim: first invalid usable way, else the least recently used.
    const uint32_t free_ways =
        static_cast<uint32_t>(maskBits(usable)) & ~uint32_t{state.valid};
    unsigned pos;
    unsigned way;
    if (free_ways != 0) {
        way = static_cast<unsigned>(std::countr_zero(free_ways));
        pos = stackPosition(state.stack, way);
    } else {
        pos = usable - 1;
        way = static_cast<unsigned>((state.stack >> (4 * pos)) & 0xF);
        if ((state.dirty >> way) & 1) {
            ++writebacks_;
            result.evictedDirty = true;
            result.evictedPa =
                lineAddress(set, tags_[set].lane[way]);
        }
    }
    const uint16_t bit = static_cast<uint16_t>(1u << way);
    tags_[set].lane[way] = tag;
    state.valid |= bit;
    state.dirty = static_cast<uint16_t>(
        (state.dirty & ~bit) | (unsigned{write} << way));
    state.stack = moveToFront(state.stack, pos);
    return result;
}

bool
CacheModel::contains(uint64_t pa) const
{
    return hitMask(indexer_.setIndex(pa), tagOf(pa)) != 0;
}

bool
CacheModel::invalidate(uint64_t pa)
{
    const uint64_t set = indexer_.setIndex(pa);
    const uint32_t hit = hitMask(set, tagOf(pa));
    if (hit == 0)
        return false;
    SetState &state = sets_[set];
    const bool dirty = (state.dirty & hit) != 0;
    state.valid &= static_cast<uint16_t>(~hit);
    state.dirty &= static_cast<uint16_t>(~hit);
    return dirty;
}

void
CacheModel::setLocked(SetState &state, unsigned locked)
{
    const unsigned old_usable = geometry_.ways - state.locked;
    const unsigned usable = geometry_.ways - locked;
    // Keep the recency order of the ways that stay usable; ways that
    // come back from a lock are invalid, so where they go is moot.
    uint64_t stack = 0;
    unsigned depth = 0;
    for (unsigned pos = 0; pos < old_usable; ++pos) {
        const unsigned way = (state.stack >> (4 * pos)) & 0xF;
        if (way < usable)
            stack |= uint64_t{way} << (4 * depth++);
    }
    for (unsigned way = old_usable; way < usable; ++way)
        stack |= uint64_t{way} << (4 * depth++);
    const uint16_t kept = static_cast<uint16_t>(maskBits(usable));
    state.stack = stack;
    state.valid &= kept;
    state.dirty &= kept;
    state.locked = static_cast<uint8_t>(locked);
}

void
CacheModel::lockWaysPerSet(unsigned count)
{
    if (count > geometry_.ways)
        fatal("CacheModel: cannot lock more ways than exist");
    for (SetState &state : sets_)
        setLocked(state, count);
}

void
CacheModel::lockRandomLines(uint64_t total_lines, Rng &rng)
{
    for (uint64_t i = 0; i < total_lines; ++i) {
        SetState &state = sets_[rng.uniformInt(geometry_.sets())];
        if (state.locked < geometry_.ways)
            setLocked(state, state.locked + 1u);  // Last usable way.
    }
}

void
CacheModel::reset()
{
    std::fill(tags_.begin(), tags_.end(), TagRow{});
    SetState cleared;
    cleared.stack = initialStack_;
    std::fill(sets_.begin(), sets_.end(), cleared);
    hits_ = misses_ = writebacks_ = 0;
}

} // namespace relaxfault
