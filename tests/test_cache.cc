/**
 * @file
 * Tests for the cache substrate: geometry, set indexing (canonical and
 * XOR-hashed), LRU behaviour, way locking, and writeback accounting,
 * plus a differential test of the packed cache model against the
 * age-stamped way array it replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "cache/cache_geometry.h"
#include "cache/cache_model.h"
#include "common/bitops.h"
#include "common/rng.h"

namespace relaxfault {
namespace {

/**
 * The original CacheModel, kept as the reference: one 16 B record per
 * way (tag, age, valid, dirty), a per-set age clock, a hit scan over the
 * usable ways and a victim that is the first invalid way, else the
 * least age. The packed model must match it access for access.
 */
class AgeLruReference
{
  public:
    AgeLruReference(const CacheGeometry &geometry, bool xor_hash)
        : geometry_(geometry), indexer_(geometry, xor_hash),
          ways_(geometry.sets() * geometry.ways),
          lockedWays_(geometry.sets(), 0), ageCounter_(geometry.sets(), 0)
    {
    }

    CacheAccessResult access(uint64_t pa, bool write)
    {
        CacheAccessResult result;
        const uint64_t set = indexer_.setIndex(pa);
        const uint64_t tag = indexer_.tag(pa);
        Way *base = setBase(set);
        const unsigned usable = availableWays(set);
        for (unsigned w = 0; w < usable; ++w) {
            Way &way = base[w];
            if (way.valid && way.tag == tag) {
                way.age = ++ageCounter_[set];
                way.dirty = way.dirty || write;
                ++hits_;
                result.hit = true;
                return result;
            }
        }
        ++misses_;
        if (usable == 0)
            return result;
        Way *victim = base;
        for (unsigned w = 0; w < usable; ++w) {
            Way &way = base[w];
            if (!way.valid) {
                victim = &way;
                break;
            }
            if (way.age < victim->age)
                victim = &way;
        }
        if (victim->valid && victim->dirty) {
            ++writebacks_;
            result.evictedDirty = true;
            result.evictedPa = lineAddress(set, victim->tag);
        }
        victim->valid = true;
        victim->tag = tag;
        victim->dirty = write;
        victim->age = ++ageCounter_[set];
        return result;
    }

    bool contains(uint64_t pa) const
    {
        const uint64_t set = indexer_.setIndex(pa);
        const Way *base = &ways_[set * geometry_.ways];
        for (unsigned w = 0; w < availableWays(set); ++w) {
            if (base[w].valid && base[w].tag == indexer_.tag(pa))
                return true;
        }
        return false;
    }

    bool invalidate(uint64_t pa)
    {
        const uint64_t set = indexer_.setIndex(pa);
        Way *base = setBase(set);
        for (unsigned w = 0; w < availableWays(set); ++w) {
            Way &way = base[w];
            if (way.valid && way.tag == indexer_.tag(pa)) {
                const bool dirty = way.dirty;
                way.valid = false;
                way.dirty = false;
                return dirty;
            }
        }
        return false;
    }

    void lockWaysPerSet(unsigned count)
    {
        for (uint64_t set = 0; set < geometry_.sets(); ++set) {
            lockedWays_[set] = static_cast<uint8_t>(count);
            Way *base = setBase(set);
            for (unsigned w = geometry_.ways - count; w < geometry_.ways;
                 ++w)
                base[w] = Way{};
        }
    }

    void lockRandomLines(uint64_t total_lines, Rng &rng)
    {
        for (uint64_t i = 0; i < total_lines; ++i) {
            const uint64_t set = rng.uniformInt(geometry_.sets());
            if (lockedWays_[set] < geometry_.ways) {
                ++lockedWays_[set];
                setBase(set)[geometry_.ways - lockedWays_[set]] = Way{};
            }
        }
    }

    void reset()
    {
        std::fill(ways_.begin(), ways_.end(), Way{});
        std::fill(lockedWays_.begin(), lockedWays_.end(), 0);
        std::fill(ageCounter_.begin(), ageCounter_.end(), 0);
        hits_ = misses_ = writebacks_ = 0;
    }

    unsigned availableWays(uint64_t set) const
    {
        return geometry_.ways - lockedWays_[set];
    }

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }
    uint64_t writebacks() const { return writebacks_; }

  private:
    struct Way
    {
        uint64_t tag = 0;
        uint32_t age = 0;
        bool valid = false;
        bool dirty = false;
    };

    Way *setBase(uint64_t set) { return &ways_[set * geometry_.ways]; }

    uint64_t lineAddress(uint64_t set, uint64_t tag) const
    {
        uint64_t low = set;
        if (indexer_.xorHash())
            low ^= xorFold(tag, geometry_.setBits());
        return ((tag << geometry_.setBits()) | low)
            << geometry_.offsetBits();
    }

    CacheGeometry geometry_;
    SetIndexer indexer_;
    std::vector<Way> ways_;
    std::vector<uint8_t> lockedWays_;
    std::vector<uint32_t> ageCounter_;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t writebacks_ = 0;
};

TEST(CacheGeometry, PaperLlc)
{
    const CacheGeometry llc{8 * 1024 * 1024, 16, 64};
    EXPECT_EQ(llc.lines(), 131072u);
    EXPECT_EQ(llc.sets(), 8192u);
    EXPECT_EQ(llc.setBits(), 13u);
    EXPECT_EQ(llc.offsetBits(), 6u);
}

TEST(SetIndexer, CanonicalUsesLowLineBits)
{
    const CacheGeometry llc{8 * 1024 * 1024, 16, 64};
    const SetIndexer indexer(llc, false);
    EXPECT_EQ(indexer.setIndex(0), 0u);
    EXPECT_EQ(indexer.setIndex(64), 1u);
    EXPECT_EQ(indexer.setIndex(8192ull * 64), 0u);  // Wraps at set count.
    EXPECT_EQ(indexer.tag(8192ull * 64), 1u);
}

TEST(SetIndexer, HashSpreadsTagAliases)
{
    const CacheGeometry llc{8 * 1024 * 1024, 16, 64};
    const SetIndexer plain(llc, false);
    const SetIndexer hashed(llc, true);
    // Addresses differing only in tag bits: same set canonically,
    // different sets (mostly) under the hash.
    unsigned plain_distinct = 0;
    unsigned hashed_distinct = 0;
    std::vector<uint64_t> plain_sets;
    std::vector<uint64_t> hashed_sets;
    for (uint64_t t = 0; t < 64; ++t) {
        const uint64_t pa = t * (llc.sets() * 64);
        plain_sets.push_back(plain.setIndex(pa));
        hashed_sets.push_back(hashed.setIndex(pa));
    }
    std::sort(plain_sets.begin(), plain_sets.end());
    std::sort(hashed_sets.begin(), hashed_sets.end());
    plain_distinct = static_cast<unsigned>(
        std::unique(plain_sets.begin(), plain_sets.end()) -
        plain_sets.begin());
    hashed_distinct = static_cast<unsigned>(
        std::unique(hashed_sets.begin(), hashed_sets.end()) -
        hashed_sets.begin());
    EXPECT_EQ(plain_distinct, 1u);
    EXPECT_EQ(hashed_distinct, 64u);
}

TEST(SetIndexer, IndexAlwaysInRange)
{
    const CacheGeometry llc{1 * 1024 * 1024, 8, 64};
    const SetIndexer hashed(llc, true);
    Rng rng(5);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(hashed.setIndex(rng.next() & ((1ull << 40) - 1)),
                  llc.sets());
}

class CacheModelTest : public ::testing::Test
{
  protected:
    CacheGeometry small_{8 * 1024, 4, 64};  // 32 sets x 4 ways.
    CacheModel cache_{small_, false};
};

TEST_F(CacheModelTest, MissThenHit)
{
    EXPECT_FALSE(cache_.access(0x1000, false).hit);
    EXPECT_TRUE(cache_.access(0x1000, false).hit);
    EXPECT_EQ(cache_.hits(), 1u);
    EXPECT_EQ(cache_.misses(), 1u);
}

TEST_F(CacheModelTest, LruEvictsOldest)
{
    // Fill one set (stride = sets * lineBytes = 2048).
    const uint64_t stride = 32 * 64;
    for (uint64_t i = 0; i < 4; ++i)
        cache_.access(i * stride, false);
    // Touch line 0 so line 1 becomes LRU.
    cache_.access(0, false);
    // Insert a 5th line; line 1 must be the victim.
    cache_.access(4 * stride, false);
    EXPECT_TRUE(cache_.contains(0));
    EXPECT_FALSE(cache_.contains(1 * stride));
    EXPECT_TRUE(cache_.contains(2 * stride));
    EXPECT_TRUE(cache_.contains(4 * stride));
}

TEST_F(CacheModelTest, DirtyEvictionReportsWriteback)
{
    const uint64_t stride = 32 * 64;
    cache_.access(0, true);  // Dirty.
    for (uint64_t i = 1; i <= 4; ++i) {
        const CacheAccessResult result = cache_.access(i * stride, false);
        if (i < 4) {
            EXPECT_FALSE(result.evictedDirty);
        } else {
            EXPECT_TRUE(result.evictedDirty);
            EXPECT_EQ(result.evictedPa, 0u);
        }
    }
    EXPECT_EQ(cache_.writebacks(), 1u);
}

TEST_F(CacheModelTest, WriteHitMarksDirty)
{
    const uint64_t stride = 32 * 64;
    cache_.access(0, false);
    cache_.access(0, true);  // Now dirty via hit.
    for (uint64_t i = 1; i <= 4; ++i)
        cache_.access(i * stride, false);
    EXPECT_EQ(cache_.writebacks(), 1u);
}

TEST_F(CacheModelTest, InvalidateRemovesLine)
{
    cache_.access(0x40, true);
    EXPECT_TRUE(cache_.contains(0x40));
    EXPECT_TRUE(cache_.invalidate(0x40));   // Was dirty.
    EXPECT_FALSE(cache_.contains(0x40));
    EXPECT_FALSE(cache_.invalidate(0x40));  // Already gone.
}

TEST_F(CacheModelTest, LockedWaysShrinkCapacity)
{
    cache_.lockWaysPerSet(2);
    EXPECT_EQ(cache_.availableWays(0), 2u);
    const uint64_t stride = 32 * 64;
    for (uint64_t i = 0; i < 3; ++i)
        cache_.access(i * stride, false);
    // Only 2 ways usable: line 0 must have been evicted.
    EXPECT_FALSE(cache_.contains(0));
    EXPECT_TRUE(cache_.contains(1 * stride));
    EXPECT_TRUE(cache_.contains(2 * stride));
}

TEST_F(CacheModelTest, FullyLockedSetBypasses)
{
    cache_.lockWaysPerSet(4);
    const CacheAccessResult result = cache_.access(0, false);
    EXPECT_FALSE(result.hit);
    EXPECT_FALSE(cache_.contains(0));
}

TEST_F(CacheModelTest, LockRandomLinesRespectsBudget)
{
    Rng rng(7);
    cache_.lockRandomLines(64, rng);
    uint64_t locked = 0;
    for (uint64_t set = 0; set < small_.sets(); ++set)
        locked += small_.ways - cache_.availableWays(set);
    // A few draws may land in full sets and be dropped; most stick.
    EXPECT_GE(locked, 56u);
    EXPECT_LE(locked, 64u);
}

TEST_F(CacheModelTest, ResetClearsEverything)
{
    cache_.access(0, true);
    cache_.lockWaysPerSet(1);
    cache_.reset();
    EXPECT_EQ(cache_.hits(), 0u);
    EXPECT_EQ(cache_.misses(), 0u);
    EXPECT_EQ(cache_.availableWays(0), 4u);
    EXPECT_FALSE(cache_.contains(0));
}

TEST(CacheModelProperty, WorkingSetWithinCapacityAlwaysHits)
{
    const CacheGeometry geometry{64 * 1024, 8, 64};
    CacheModel cache(geometry, true);
    // Touch a working set half the cache, twice; second pass must be
    // all hits regardless of hashing.
    const uint64_t lines = geometry.lines() / 2;
    for (uint64_t i = 0; i < lines; ++i)
        cache.access(i * 64, false);
    const uint64_t misses_before = cache.misses();
    for (uint64_t i = 0; i < lines; ++i)
        cache.access(i * 64, false);
    EXPECT_EQ(cache.misses(), misses_before);
}

class LockSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(LockSweep, MissRateMonotonicInLockedWays)
{
    // With a working set just over the available capacity, locking more
    // ways must not reduce misses.
    const CacheGeometry geometry{64 * 1024, 8, 64};
    const unsigned locked = GetParam();
    CacheModel cache(geometry, false);
    cache.lockWaysPerSet(locked);
    Rng rng(99);
    const uint64_t ws_lines = geometry.lines();  // 2x usable at 4 ways.
    for (int i = 0; i < 200000; ++i)
        cache.access(rng.uniformInt(ws_lines) * 64, false);
    const double miss_rate =
        static_cast<double>(cache.misses()) /
        static_cast<double>(cache.misses() + cache.hits());
    static double last_rate = 0.0;
    if (locked == 0)
        last_rate = 0.0;
    EXPECT_GE(miss_rate + 1e-9, last_rate);
    last_rate = miss_rate;
}

INSTANTIATE_TEST_SUITE_P(Locked, LockSweep,
                         ::testing::Values(0u, 1u, 2u, 4u, 6u));

struct DifferentialShape
{
    unsigned ways;
    bool xorHash;
};

/** Names the shape in test listings instead of dumping its padding. */
void
PrintTo(const DifferentialShape &shape, std::ostream *os)
{
    *os << shape.ways << "-way " << (shape.xorHash ? "hashed" : "canonical");
}

class CacheModelDifferential
    : public ::testing::TestWithParam<DifferentialShape>
{
};

TEST_P(CacheModelDifferential, MatchesAgeLruReferenceAtEveryStep)
{
    const DifferentialShape shape = GetParam();
    const CacheGeometry geometry{uint64_t{32} * shape.ways * 64,
                                 shape.ways, 64};  // 32 sets.
    CacheModel packed(geometry, shape.xorHash);
    AgeLruReference reference(geometry, shape.xorHash);
    Rng ops(1000 + shape.ways * 2 + shape.xorHash);
    Rng packed_placement(77);
    Rng reference_placement(77);

    // About 3x the cache's lines, so sets see hits, conflict misses and
    // dirty evictions; tags span 20 bits to exercise the XOR fold.
    const uint64_t pool = geometry.lines() * 3;
    std::vector<uint64_t> lines(pool);
    for (uint64_t &line : lines)
        line = ops.uniformInt(uint64_t{1} << 25) * 64;

    uint64_t hits = 0;
    uint64_t dirty_evictions = 0;
    uint64_t locks = 0;
    for (int step = 0; step < 60000; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        const uint64_t pa = lines[ops.uniformInt(pool)];
        const unsigned op = static_cast<unsigned>(ops.uniformInt(1000));
        if (op < 900) {
            const bool write = ops.bernoulli(0.3);
            const CacheAccessResult got = packed.access(pa, write);
            const CacheAccessResult want = reference.access(pa, write);
            ASSERT_EQ(got.hit, want.hit);
            ASSERT_EQ(got.evictedDirty, want.evictedDirty);
            ASSERT_EQ(got.evictedPa, want.evictedPa);
            hits += got.hit;
            dirty_evictions += got.evictedDirty;
        } else if (op < 970) {
            ASSERT_EQ(packed.invalidate(pa), reference.invalidate(pa));
        } else if (op < 985) {
            const uint64_t count = ops.uniformInt(4);
            packed.lockRandomLines(count, packed_placement);
            reference.lockRandomLines(count, reference_placement);
            ++locks;
        } else if (op < 999) {
            const unsigned count =
                static_cast<unsigned>(ops.uniformInt(shape.ways + 1));
            packed.lockWaysPerSet(count);
            reference.lockWaysPerSet(count);
            ++locks;
        } else {
            packed.reset();
            reference.reset();
        }
        ASSERT_EQ(packed.contains(pa), reference.contains(pa));
        const uint64_t set = packed.indexer().setIndex(pa);
        ASSERT_EQ(packed.availableWays(set), reference.availableWays(set));
        ASSERT_EQ(packed.hits(), reference.hits());
        ASSERT_EQ(packed.misses(), reference.misses());
        ASSERT_EQ(packed.writebacks(), reference.writebacks());
    }
    for (uint64_t set = 0; set < geometry.sets(); ++set)
        ASSERT_EQ(packed.availableWays(set), reference.availableWays(set));
    for (const uint64_t pa : lines)
        ASSERT_EQ(packed.contains(pa), reference.contains(pa));
    // Every path ran often enough to matter.
    EXPECT_GT(hits, 1000u);
    EXPECT_GT(dirty_evictions, 500u);
    EXPECT_GT(locks, 500u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CacheModelDifferential,
    ::testing::Values(DifferentialShape{1, false}, DifferentialShape{3, true},
                      DifferentialShape{4, false}, DifferentialShape{4, true},
                      DifferentialShape{8, false}, DifferentialShape{8, true},
                      DifferentialShape{16, false},
                      DifferentialShape{16, true}),
    [](const ::testing::TestParamInfo<DifferentialShape> &info) {
        return std::to_string(info.param.ways) + "way" +
            (info.param.xorHash ? "Hashed" : "Canonical");
    });

TEST(CacheModelLayout, SimdAndScalarTagComparesAgree)
{
    Rng rng(31);
    alignas(64) uint32_t row[16];
    for (int trial = 0; trial < 20000; ++trial) {
        // Few distinct values, so rows repeat the key in several lanes.
        const uint32_t base = static_cast<uint32_t>(rng.next());
        for (uint32_t &lane : row)
            lane = base + static_cast<uint32_t>(rng.uniformInt(4));
        const uint32_t tag = base + static_cast<uint32_t>(rng.uniformInt(5));
        for (const unsigned lanes : {4u, 8u, 12u, 16u}) {
            ASSERT_EQ(tagMatchMask(row, lanes, tag),
                      tagMatchMaskScalar(row, lanes, tag))
                << "lanes " << lanes;
        }
    }
    row[15] = 0xFFFFFFFFu;  // The sign bit must not matter.
    EXPECT_EQ(tagMatchMask(row, 16, 0xFFFFFFFFu), 1u << 15);
}

TEST(CacheModelLayout, AddressBitsLimitIsTheTagRowWidth)
{
    const CacheGeometry llc{8 * 1024 * 1024, 16, 64};
    EXPECT_EQ(CacheModel::addressBitsLimit(llc), 6u + 13u + 32u);
    const CacheGeometry small{8 * 1024, 4, 64};
    CacheModel cache(small, true);
    const uint64_t widest =
        (uint64_t{1} << CacheModel::addressBitsLimit(small)) - 64;
    EXPECT_FALSE(cache.access(widest, true).hit);
    EXPECT_TRUE(cache.contains(widest));
}

TEST(CacheModelDeathTest, MoreThanSixteenWaysIsFatal)
{
    const CacheGeometry wide{32 * 17 * 64, 17, 64};
    EXPECT_DEATH(CacheModel(wide, false), "recency stack orders at most 16");
}

TEST(CacheModelDeathTest, TagWiderThan32BitsIsFatal)
{
    const CacheGeometry small{8 * 1024, 4, 64};
    CacheModel cache(small, false);
    const uint64_t pa = uint64_t{1} << CacheModel::addressBitsLimit(small);
    EXPECT_DEATH(cache.access(pa, false), "tag wider than 32 bits");
    EXPECT_DEATH(cache.contains(pa), "tag wider than 32 bits");
    EXPECT_DEATH(cache.invalidate(pa), "tag wider than 32 bits");
}

} // namespace
} // namespace relaxfault
