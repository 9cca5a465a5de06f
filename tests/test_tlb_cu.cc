/**
 * @file
 * TLB, ComputeUnit, and node-level translation-path tests.
 */

#include <gtest/gtest.h>

#include <list>
#include <random>
#include <unordered_map>

#include "core/experiment.hh"
#include "core/system.hh"
#include "gpu/compute_unit.hh"
#include "mem/tlb.hh"
#include "sim/event_queue.hh"

using namespace mgsec;

// -------------------------------------------------------------------- TLB

TEST(Tlb, MissThenHit)
{
    EventQueue eq;
    Tlb t("t", eq, TlbParams{4, 1});
    EXPECT_FALSE(t.lookup(10));
    EXPECT_TRUE(t.lookup(10));
    EXPECT_EQ(t.hits(), 1u);
    EXPECT_EQ(t.misses(), 1u);
}

TEST(Tlb, LruEviction)
{
    EventQueue eq;
    Tlb t("t", eq, TlbParams{2, 1});
    t.lookup(1);
    t.lookup(2);
    t.lookup(1);      // 2 becomes LRU
    t.lookup(3);      // evicts 2
    EXPECT_TRUE(t.resident(1));
    EXPECT_FALSE(t.resident(2));
    EXPECT_TRUE(t.resident(3));
    EXPECT_EQ(t.occupancy(), 2u);
}

TEST(Tlb, InvalidateRemovesMapping)
{
    EventQueue eq;
    Tlb t("t", eq, TlbParams{4, 1});
    t.lookup(5);
    EXPECT_TRUE(t.invalidate(5));
    EXPECT_FALSE(t.resident(5));
    EXPECT_FALSE(t.invalidate(5));
}

TEST(Tlb, FlushClearsEverything)
{
    EventQueue eq;
    Tlb t("t", eq, TlbParams{8, 1});
    for (std::uint64_t p = 0; p < 8; ++p)
        t.lookup(p);
    t.flush();
    EXPECT_EQ(t.occupancy(), 0u);
    EXPECT_FALSE(t.resident(0));
}

TEST(Tlb, ResidentHasNoSideEffects)
{
    EventQueue eq;
    Tlb t("t", eq, TlbParams{4, 1});
    t.lookup(9);
    const std::uint64_t hits = t.hits();
    EXPECT_TRUE(t.resident(9));
    EXPECT_EQ(t.hits(), hits);
}

TEST(Tlb, CapacityWorkloadFullyHitsOnSecondPass)
{
    EventQueue eq;
    Tlb t("t", eq, TlbParams{64, 1});
    for (std::uint64_t p = 0; p < 64; ++p)
        t.lookup(p);
    for (std::uint64_t p = 0; p < 64; ++p)
        EXPECT_TRUE(t.lookup(p));
}

namespace
{

/** The original std::list + unordered_map LRU, as a reference. */
class RefLru
{
  public:
    explicit RefLru(std::uint32_t entries) : entries_(entries) {}

    bool
    lookup(std::uint64_t page)
    {
        auto it = map_.find(page);
        if (it != map_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second);
            ++hits;
            return true;
        }
        ++misses;
        if (lru_.size() >= entries_) {
            map_.erase(lru_.back());
            lru_.pop_back();
            ++evictions;
        }
        lru_.push_front(page);
        map_[page] = lru_.begin();
        return false;
    }

    bool resident(std::uint64_t page) const { return map_.count(page); }

    bool
    invalidate(std::uint64_t page)
    {
        auto it = map_.find(page);
        if (it == map_.end())
            return false;
        lru_.erase(it->second);
        map_.erase(it);
        return true;
    }

    void
    flush()
    {
        lru_.clear();
        map_.clear();
    }

    std::uint32_t
    occupancy() const
    {
        return static_cast<std::uint32_t>(lru_.size());
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;

  private:
    std::uint32_t entries_;
    std::list<std::uint64_t> lru_;
    std::unordered_map<std::uint64_t,
                       std::list<std::uint64_t>::iterator> map_;
};

} // anonymous namespace

TEST(Tlb, MatchesListAndMapLru)
{
    struct Shape
    {
        std::uint32_t entries;
        std::uint64_t universe; ///< distinct pages in play
        bool sparse;            ///< pages spread over 64 bits
    };
    const Shape shapes[] = {
        {1, 4, false},     {2, 5, false},      {7, 20, true},
        {64, 48, false},   {64, 200, false},   {64, 200, true},
        {1024, 900, false}, {1024, 3000, true},
    };
    std::mt19937_64 rng(17);
    for (const Shape &sh : shapes) {
        SCOPED_TRACE(sh.entries);
        EventQueue eq;
        Tlb t("t", eq, TlbParams{sh.entries, 1});
        RefLru ref(sh.entries);
        std::vector<std::uint64_t> pages(sh.universe);
        for (std::uint64_t i = 0; i < sh.universe; ++i)
            pages[i] = sh.sparse ? rng() : 0x4000 + i;
        for (int op = 0; op < 60000; ++op) {
            const std::uint64_t p = pages[rng() % pages.size()];
            const unsigned kind = rng() % 100;
            if (kind < 70) {
                ASSERT_EQ(t.lookup(p), ref.lookup(p)) << op;
            } else if (kind < 88) {
                ASSERT_EQ(t.invalidate(p), ref.invalidate(p)) << op;
            } else if (kind < 99) {
                ASSERT_EQ(t.resident(p), ref.resident(p)) << op;
            } else if (rng() % 20 == 0) {
                t.flush();
                ref.flush();
            }
            ASSERT_EQ(t.occupancy(), ref.occupancy()) << op;
        }
        for (const std::uint64_t p : pages)
            EXPECT_EQ(t.resident(p), ref.resident(p));
        EXPECT_EQ(t.hits(), ref.hits);
        EXPECT_EQ(t.misses(), ref.misses);
        EXPECT_EQ(t.evictions(), ref.evictions);
        if (sh.universe > sh.entries) {
            EXPECT_GT(ref.evictions, 0u);
        }
    }
}

// ------------------------------------------------------------ ComputeUnit

TEST(ComputeUnit, TranslateFillsPrivateTlb)
{
    EventQueue eq;
    ComputeUnit cu("cu", eq, ComputeUnitParams{});
    EXPECT_FALSE(cu.translate(0x4000));
    EXPECT_TRUE(cu.translate(0x4000));
    EXPECT_TRUE(cu.translate(0x4fff)); // same page
    EXPECT_FALSE(cu.translate(0x5000)); // next page
}

TEST(ComputeUnit, L1AccessCachesBlocks)
{
    EventQueue eq;
    ComputeUnit cu("cu", eq, ComputeUnitParams{});
    EXPECT_FALSE(cu.l1Access(0x100, false));
    EXPECT_TRUE(cu.l1Access(0x100, false));
}

TEST(ComputeUnit, InvalidatePageDropsTlbAndL1)
{
    EventQueue eq;
    ComputeUnit cu("cu", eq, ComputeUnitParams{});
    cu.translate(0x4000);
    cu.l1Access(0x4000, false);
    cu.invalidatePage(0x4000 / kPageBytes);
    EXPECT_FALSE(cu.l1Tlb().resident(0x4000 / kPageBytes));
    EXPECT_FALSE(cu.l1().contains(0x4000));
}

// --------------------------------------------------------- node-level path

TEST(TranslationPath, GpuNodesHaveCusAndCpuDoesNot)
{
    ExperimentConfig e;
    e.scheme = OtpScheme::Unsecure;
    e.scale = 0.05;
    SystemConfig sc = makeSystemConfig(e);
    MultiGpuSystem sys(sc, makeProfile("mm", e.scale));
    EXPECT_EQ(sys.node(0).numCus(), 0u);
    EXPECT_EQ(sys.node(1).numCus(), 64u);
}

TEST(TranslationPath, IommuWalksAppearAsCpuTraffic)
{
    ExperimentConfig e;
    e.scheme = OtpScheme::Unsecure;
    e.scale = 0.1;
    SystemConfig sc = makeSystemConfig(e);
    // Tiny TLBs so walks are common.
    sc.gpu.cu.l1Tlb.entries = 2;
    sc.gpu.l2Tlb.entries = 4;
    MultiGpuSystem sys(sc, makeProfile("pr", e.scale));
    const RunResult r = sys.run();
    EXPECT_TRUE(r.completed);
    // The walks show up as GPU->CPU packets even though pr itself
    // sends little to the host.
    EXPECT_GT(sys.network().pairBytes(1, 0), 0u);
    EXPECT_GT(sys.node(1).l2Tlb().misses(), 0u);
}

TEST(TranslationPath, LargerTlbMeansFewerWalks)
{
    ExperimentConfig e;
    e.scheme = OtpScheme::Unsecure;
    e.scale = 0.1;

    e.scale = 0.5;
    auto walks = [&](std::uint32_t l2_entries) {
        SystemConfig sc = makeSystemConfig(e);
        sc.gpu.l2Tlb.entries = l2_entries;
        // st has a small, heavily revisited working set, so TLB
        // capacity actually matters.
        MultiGpuSystem sys(sc, makeProfile("st", e.scale));
        sys.run();
        std::uint64_t misses = 0;
        for (NodeId g = 1; g < sys.numNodes(); ++g)
            misses += sys.node(g).l2Tlb().misses();
        return misses;
    };
    EXPECT_LT(walks(4096), walks(2));
}

TEST(TranslationPath, L1FiltersLocalAccesses)
{
    // aes migrates pages local and then re-reads them: the CU L1s
    // and L2 should absorb most of that.
    ExperimentConfig e;
    e.scheme = OtpScheme::Unsecure;
    e.scale = 0.2;
    SystemConfig sc = makeSystemConfig(e);
    MultiGpuSystem sys(sc, makeProfile("aes", e.scale));
    const RunResult r = sys.run();
    EXPECT_TRUE(r.completed);
    std::uint64_t l1_hits = 0;
    for (NodeId g = 1; g < sys.numNodes(); ++g)
        l1_hits += sys.node(g).cu(0).l1().hits();
    // At least some locality is captured somewhere in the L1s.
    std::uint64_t total_l1_hits = 0;
    for (NodeId g = 1; g < sys.numNodes(); ++g)
        for (std::uint32_t c = 0; c < sys.node(g).numCus(); ++c)
            total_l1_hits += sys.node(g).cu(c).l1().hits();
    EXPECT_GT(total_l1_hits + l1_hits, 0u);
}
