/**
 * @file
 * Cache, HBM, and page-table tests.
 */

#include <gtest/gtest.h>

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
