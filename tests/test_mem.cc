/**
 * @file
 * Cache, HBM, and page-table tests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "mem/cache.hh"
#include "mem/hbm.hh"
#include "mem/page_table.hh"
#include "sim/event_queue.hh"

using namespace mgsec;

namespace
{

CacheParams
smallCache(Bytes size = 1024, std::uint32_t assoc = 2)
{
    CacheParams p;
    p.size = size;
    p.assoc = assoc;
    p.blockSize = 64;
    p.hitLatency = 1;
    return p;
}

} // anonymous namespace

// ----------------------------------------------------------------- Cache

TEST(Cache, MissThenHit)
{
    EventQueue eq;
    Cache c("c", eq, smallCache());
    EXPECT_FALSE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1000, false).hit);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, SameBlockDifferentBytesHit)
{
    EventQueue eq;
    Cache c("c", eq, smallCache());
    c.access(0x1000, false);
    EXPECT_TRUE(c.access(0x103F, false).hit);
    EXPECT_FALSE(c.access(0x1040, false).hit);
}

TEST(Cache, LruEvictsOldest)
{
    EventQueue eq;
    // 1 KB, 2-way, 64 B blocks => 8 sets. Set 0 holds addresses that
    // are multiples of 512.
    Cache c("c", eq, smallCache());
    c.access(0 * 512, false);
    c.access(1 * 512, false);
    c.access(0 * 512, false); // touch A: B is now LRU
    const auto res = c.access(2 * 512, false);
    EXPECT_TRUE(res.evicted);
    EXPECT_EQ(res.victimAddr, 1u * 512);
    EXPECT_TRUE(c.contains(0 * 512));
    EXPECT_FALSE(c.contains(1 * 512));
}

TEST(Cache, DirtyEvictionReportsWriteback)
{
    EventQueue eq;
    Cache c("c", eq, smallCache());
    c.access(0 * 512, true);
    c.access(1 * 512, false);
    c.access(2 * 512, false); // evicts dirty A
    // A was LRU after B and the new fill.
    EXPECT_FALSE(c.contains(0 * 512));
}

TEST(Cache, WriteMarksDirtyOnHit)
{
    EventQueue eq;
    Cache c("c", eq, smallCache(128, 2)); // 1 set, 2 ways
    c.access(0, false);
    c.access(0, true); // dirty now
    c.access(64, false);
    const auto res = c.access(128, false); // evicts LRU = addr 0
    EXPECT_TRUE(res.evicted);
    EXPECT_TRUE(res.victimDirty);
}

TEST(Cache, InvalidateRemovesBlock)
{
    EventQueue eq;
    Cache c("c", eq, smallCache());
    c.access(0x2000, false);
    EXPECT_TRUE(c.contains(0x2000));
    EXPECT_TRUE(c.invalidate(0x2000));
    EXPECT_FALSE(c.contains(0x2000));
    EXPECT_FALSE(c.invalidate(0x2000));
}

TEST(Cache, InvalidateRangeCoversPage)
{
    EventQueue eq;
    Cache c("c", eq, smallCache(64 * 1024, 16));
    for (std::uint64_t a = 0; a < 4096; a += 64)
        c.access(a, false);
    EXPECT_EQ(c.invalidateRange(0, 4096), 64u);
}

/**
 * invalidateRange (with its page filter) against per-block
 * invalidate() on a twin cache fed the same accesses. Covers resident
 * and absent pages, unaligned and multi-page ranges, and buckets
 * driven to saturation on the large geometry.
 */
class CacheShootdown : public ::testing::TestWithParam<CacheParams>
{};

TEST_P(CacheShootdown, MatchesPerBlockInvalidate)
{
    const CacheParams geom = GetParam();
    EventQueue eq;
    Cache fast("fast", eq, geom);
    Cache ref("ref", eq, geom);
    const std::uint64_t blocks = geom.size / geom.blockSize;
    // Enough pages to overfill the cache twice over.
    const std::uint64_t pages = blocks * geom.blockSize * 2 / kPageBytes;
    std::mt19937_64 rng(geom.size + geom.assoc);

    const auto touch = [&](std::uint64_t addr) {
        const bool write = rng() % 4 == 0;
        const Cache::AccessResult a = fast.access(addr, write);
        const Cache::AccessResult b = ref.access(addr, write);
        ASSERT_EQ(a.hit, b.hit);
        ASSERT_EQ(a.evicted, b.evicted);
        ASSERT_EQ(a.victimAddr, b.victimAddr);
        ASSERT_EQ(a.victimDirty, b.victimDirty);
    };
    const auto shootdown = [&](std::uint64_t base, Bytes len) {
        std::uint32_t want = 0;
        for (std::uint64_t a = base; a < base + len; a += geom.blockSize)
            want += ref.invalidate(a) ? 1 : 0;
        ASSERT_EQ(fast.invalidateRange(base, len), want)
            << "base " << base << " len " << len;
    };

    // Fill every line, then mix accesses with shootdowns.
    for (std::uint64_t b = 0; b < blocks; ++b)
        touch(b * geom.blockSize);
    std::uint32_t dropped = 0;
    for (int round = 0; round < 4000; ++round) {
        for (int i = 0; i < 32; ++i)
            touch((rng() % pages) * kPageBytes + rng() % kPageBytes);
        const std::uint64_t page = rng() % (pages + 64);
        switch (rng() % 4) {
          case 0: // unaligned start, partial length
            shootdown(page * kPageBytes + rng() % kPageBytes,
                      1 + rng() % kPageBytes);
            break;
          case 1: // several pages at once
            shootdown(page * kPageBytes, kPageBytes * (1 + rng() % 3));
            break;
          default: {
            const std::uint64_t before = fast.hits() + fast.misses();
            shootdown(page * kPageBytes, kPageBytes);
            EXPECT_EQ(fast.hits() + fast.misses(), before);
            break;
          }
        }
        if (::testing::Test::HasFatalFailure())
            return;
        dropped += fast.invalidateRange(page * kPageBytes, 0);
    }
    EXPECT_EQ(dropped, 0u);
    for (std::uint64_t p = 0; p < pages + 64; ++p)
        for (std::uint64_t a = 0; a < kPageBytes; a += geom.blockSize)
            ASSERT_EQ(fast.contains(p * kPageBytes + a),
                      ref.contains(p * kPageBytes + a));
    EXPECT_EQ(fast.hits(), ref.hits());
    EXPECT_EQ(fast.misses(), ref.misses());
}

INSTANTIATE_TEST_SUITE_P(
    TableIII, CacheShootdown,
    ::testing::Values(
        CacheParams{16 * 1024, 4, kBlockBytes, 1},       // CU L1
        CacheParams{2 * 1024 * 1024, 16, kBlockBytes, 20}, // GPU L2
        CacheParams{8 * 1024 * 1024, 16, kBlockBytes, 30}), // CPU LLC
    [](const ::testing::TestParamInfo<CacheParams> &info) {
        return "kib" + std::to_string(info.param.size / 1024) + "x" +
               std::to_string(info.param.assoc);
    });

/**
 * The stamp-based LRU tag array the line-word Cache replaced: every
 * line carries a timestamp, a fill takes the first invalid way, else
 * the way with the smallest stamp. Kept as an independent reference
 * for the recency-ordered implementation.
 */
class StampCache
{
  public:
    explicit StampCache(const CacheParams &p)
        : p_(p), sets_(p.size / p.blockSize / p.assoc),
          lines_(p.size / p.blockSize)
    {}

    Cache::AccessResult
    access(std::uint64_t addr, bool write)
    {
        Cache::AccessResult res;
        const std::uint64_t set = (addr / p_.blockSize) % sets_;
        const std::uint64_t tag = addr / p_.blockSize / sets_;
        Line *base = &lines_[set * p_.assoc];
        Line *victim = nullptr;
        for (std::uint32_t w = 0; w < p_.assoc; ++w) {
            Line &l = base[w];
            if (l.valid && l.tag == tag) {
                l.lruStamp = ++clock_;
                l.dirty = l.dirty || write;
                ++hits;
                res.hit = true;
                return res;
            }
            if (victim == nullptr ||
                (victim->valid && (!l.valid || l.lruStamp < victim->lruStamp)))
                victim = &l;
        }
        ++misses;
        if (victim->valid) {
            ++evictions;
            res.evicted = true;
            res.victimAddr = (victim->tag * sets_ + set) * p_.blockSize;
            res.victimDirty = victim->dirty;
            writebacks += victim->dirty ? 1 : 0;
        }
        *victim = Line{true, write, tag, ++clock_};
        return res;
    }

    bool contains(std::uint64_t addr) { return find(addr) != nullptr; }

    bool
    invalidate(std::uint64_t addr)
    {
        Line *l = find(addr);
        if (l == nullptr)
            return false;
        *l = Line{};
        return true;
    }

    std::uint32_t
    invalidateRange(std::uint64_t base, Bytes len)
    {
        std::uint32_t n = 0;
        for (std::uint64_t a = base; a < base + len; a += p_.blockSize)
            n += invalidate(a) ? 1 : 0;
        return n;
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        std::uint64_t tag = 0;
        std::uint64_t lruStamp = 0;
    };

    Line *
    find(std::uint64_t addr)
    {
        const std::uint64_t set = (addr / p_.blockSize) % sets_;
        const std::uint64_t tag = addr / p_.blockSize / sets_;
        for (std::uint32_t w = 0; w < p_.assoc; ++w) {
            Line &l = lines_[set * p_.assoc + w];
            if (l.valid && l.tag == tag)
                return &l;
        }
        return nullptr;
    }

    CacheParams p_;
    std::uint64_t sets_;
    std::vector<Line> lines_;
    std::uint64_t clock_ = 0;
};

/**
 * Cache against StampCache under random access / invalidate /
 * invalidateRange / contains traffic: every AccessResult field, every
 * probe and every counter must agree.
 */
class CacheReference : public ::testing::TestWithParam<CacheParams>
{};

TEST_P(CacheReference, MatchesStampLru)
{
    const CacheParams geom = GetParam();
    EventQueue eq;
    Cache c("c", eq, geom);
    StampCache ref(geom);
    std::mt19937_64 rng(geom.size * 31 + geom.assoc);
    const std::uint64_t sets = geom.size / geom.blockSize / geom.assoc;
    // Hot traffic: a window of up to 128 adjacent sets (two pages of
    // blocks) and three times as many tags as ways, so sets fill,
    // hit and evict on every geometry; cold traffic: anywhere.
    const std::uint64_t window = std::min<std::uint64_t>(sets, 128);
    const std::uint64_t set0 = rng() % sets;
    const auto addr = [&]() -> std::uint64_t {
        if (rng() % 8 == 0)
            return rng() % (geom.size * 2);
        const std::uint64_t set = (set0 + rng() % window) % sets;
        const std::uint64_t tag = rng() % (3 * geom.assoc);
        return (tag * sets + set) * geom.blockSize +
               rng() % geom.blockSize;
    };

    for (int op = 0; op < 200000; ++op) {
        switch (rng() % 16) {
          case 0: {
            const std::uint64_t a = addr();
            ASSERT_EQ(c.invalidate(a), ref.invalidate(a)) << "op " << op;
            break;
          }
          case 1: {
            const std::uint64_t base =
                addr() / kPageBytes * kPageBytes + rng() % 3 * 1024;
            const Bytes len = 1 + rng() % (2 * kPageBytes);
            ASSERT_EQ(c.invalidateRange(base, len),
                      ref.invalidateRange(base, len))
                << "op " << op;
            break;
          }
          case 2:
          case 3: {
            const std::uint64_t a = addr();
            ASSERT_EQ(c.contains(a), ref.contains(a)) << "op " << op;
            break;
          }
          default: {
            const std::uint64_t a = addr();
            const bool write = rng() % 4 == 0;
            const Cache::AccessResult x = c.access(a, write);
            const Cache::AccessResult y = ref.access(a, write);
            ASSERT_EQ(x.hit, y.hit) << "op " << op;
            ASSERT_EQ(x.evicted, y.evicted) << "op " << op;
            ASSERT_EQ(x.victimAddr, y.victimAddr) << "op " << op;
            ASSERT_EQ(x.victimDirty, y.victimDirty) << "op " << op;
            break;
          }
        }
    }
    EXPECT_EQ(c.hits(), ref.hits);
    EXPECT_EQ(c.misses(), ref.misses);
    EXPECT_EQ(c.evictions(), ref.evictions);
    EXPECT_EQ(c.writebacks(), ref.writebacks);
    // The mix exercised every path.
    EXPECT_GT(ref.hits, 0u);
    EXPECT_GT(ref.writebacks, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheReference,
    ::testing::Values(
        CacheParams{16 * 1024, 4, kBlockBytes, 1},         // CU L1
        CacheParams{2 * 1024 * 1024, 16, kBlockBytes, 20}, // GPU L2
        CacheParams{8 * 1024 * 1024, 16, kBlockBytes, 30}, // CPU LLC
        CacheParams{16 * 1024, 1, kBlockBytes, 1},         // direct-mapped
        CacheParams{4 * 1024, 64, kBlockBytes, 1}),        // fully assoc.
    [](const ::testing::TestParamInfo<CacheParams> &info) {
        return "kib" + std::to_string(info.param.size / 1024) + "x" +
               std::to_string(info.param.assoc);
    });

TEST(CacheDeath, TagReachingDirtyBitRejected)
{
    // One set of 2-byte blocks leaves a 63-bit tag.
    EventQueue eq;
    EXPECT_DEATH(Cache("c", eq, CacheParams{2, 1, 2, 1}), "dirty bit");
}

TEST(Cache, ContainsHasNoSideEffects)
{
    EventQueue eq;
    Cache c("c", eq, smallCache());
    c.access(0x3000, false);
    const std::uint64_t hits = c.hits();
    EXPECT_TRUE(c.contains(0x3000));
    EXPECT_EQ(c.hits(), hits);
}

TEST(CacheDeath, NonPowerOfTwoBlockRejected)
{
    EventQueue eq;
    CacheParams p = smallCache();
    p.blockSize = 48;
    EXPECT_DEATH(Cache("c", eq, p), "power of two");
}

/** Geometry sweep: fills never exceed capacity; hit rate on a
 *  repeated scan of a fitting working set is eventually 100 %. */
class CacheGeometry
    : public ::testing::TestWithParam<std::pair<Bytes, std::uint32_t>>
{};

TEST_P(CacheGeometry, FittingWorkingSetFullyHitsOnSecondPass)
{
    EventQueue eq;
    const auto [size, assoc] = GetParam();
    Cache c("c", eq, smallCache(size, assoc));
    const Bytes blocks = size / 64;
    for (Bytes i = 0; i < blocks; ++i)
        c.access(i * 64, false);
    for (Bytes i = 0; i < blocks; ++i)
        EXPECT_TRUE(c.access(i * 64, false).hit);
    EXPECT_EQ(c.misses(), blocks);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::make_pair<Bytes, std::uint32_t>(512, 1),
                      std::make_pair<Bytes, std::uint32_t>(1024, 2),
                      std::make_pair<Bytes, std::uint32_t>(4096, 4),
                      std::make_pair<Bytes, std::uint32_t>(8192, 8),
                      std::make_pair<Bytes, std::uint32_t>(
                          2 * 1024 * 1024, 16)));

// ------------------------------------------------------------------- HBM

TEST(Hbm, AccessLatencyApplied)
{
    EventQueue eq;
    Hbm m("m", eq, HbmParams{64.0, 100});
    EXPECT_EQ(m.access(64), 101u); // 1 cycle transfer + 100
}

TEST(Hbm, BandwidthSerializes)
{
    EventQueue eq;
    Hbm m("m", eq, HbmParams{64.0, 100});
    EXPECT_EQ(m.access(640), 110u);
    EXPECT_EQ(m.access(64), 111u); // queued behind the first
}

TEST(Hbm, IdleGapsDoNotAccumulateCredit)
{
    EventQueue eq;
    Hbm m("m", eq, HbmParams{64.0, 10});
    m.access(64);
    eq.schedule(1000, []() {});
    eq.run();
    EXPECT_EQ(m.access(64), 1011u);
}

TEST(Hbm, StatsTrackBytes)
{
    EventQueue eq;
    Hbm m("m", eq, HbmParams{64.0, 10});
    m.access(64);
    m.access(4096);
    EXPECT_EQ(m.accesses(), 2u);
    EXPECT_EQ(m.bytesServed(), 4160u);
}

// ------------------------------------------------------------ Page table

TEST(PageTable, FirstTouchMapsToToucher)
{
    EventQueue eq;
    PageTable pt("pt", eq, PageTableParams{}, 5);
    EXPECT_EQ(pt.home(100, 3), 3u);
    EXPECT_TRUE(pt.mapped(100));
    EXPECT_FALSE(pt.mapped(101));
    // Later touchers see the existing mapping.
    EXPECT_EQ(pt.home(100, 1), 3u);
}

TEST(PageTable, PlacePins)
{
    EventQueue eq;
    PageTable pt("pt", eq, PageTableParams{}, 5);
    pt.place(7, 2);
    EXPECT_EQ(pt.homeOf(7), 2u);
}

TEST(PageTable, MigrationTriggersAtThreshold)
{
    EventQueue eq;
    PageTableParams params;
    params.migrationThreshold = 4;
    PageTable pt("pt", eq, params, 5);
    pt.place(9, 1);
    for (int i = 0; i < 3; ++i)
        EXPECT_FALSE(pt.recordRemoteAccess(9, 2));
    EXPECT_TRUE(pt.recordRemoteAccess(9, 2));
}

TEST(PageTable, CountersArePerAccessor)
{
    EventQueue eq;
    PageTableParams params;
    params.migrationThreshold = 3;
    PageTable pt("pt", eq, params, 5);
    pt.place(9, 1);
    EXPECT_FALSE(pt.recordRemoteAccess(9, 2));
    EXPECT_FALSE(pt.recordRemoteAccess(9, 3));
    EXPECT_FALSE(pt.recordRemoteAccess(9, 2));
    EXPECT_FALSE(pt.recordRemoteAccess(9, 3));
    EXPECT_TRUE(pt.recordRemoteAccess(9, 2));
}

TEST(PageTable, FinishMigrationMovesHomeAndResets)
{
    EventQueue eq;
    PageTableParams params;
    params.migrationThreshold = 2;
    PageTable pt("pt", eq, params, 5);
    pt.place(9, 1);
    pt.recordRemoteAccess(9, 2);
    EXPECT_TRUE(pt.recordRemoteAccess(9, 2));
    pt.finishMigration(9, 2);
    EXPECT_EQ(pt.homeOf(9), 2u);
    EXPECT_EQ(pt.migrations(), 1u);
    // Counters reset: the old home needs a fresh threshold run.
    EXPECT_FALSE(pt.recordRemoteAccess(9, 1));
}

TEST(PageTable, MigrationCanBeDisabled)
{
    EventQueue eq;
    PageTableParams params;
    params.migrationThreshold = 1;
    params.migrationEnabled = false;
    PageTable pt("pt", eq, params, 5);
    pt.place(9, 1);
    for (int i = 0; i < 10; ++i)
        EXPECT_FALSE(pt.recordRemoteAccess(9, 2));
}

TEST(PageTableDeath, HomeOfUnmappedPanics)
{
    EventQueue eq;
    PageTable pt("pt", eq, PageTableParams{}, 5);
    EXPECT_DEATH(pt.homeOf(424242), "unmapped");
}
