/**
 * @file
 * PadPipeline tests: the staging-slot model behind every OTP scheme,
 * and the Ring that holds its slots.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <random>

#include "secure/pad_pipeline.hh"
#include "sim/ring.hh"

using namespace mgsec;

TEST(PadPipeline, InitialPadsReadyAfterOneLatency)
{
    PadPipeline p;
    p.init(0, 40, 4, 0);
    EXPECT_EQ(p.quota(), 4u);
    EXPECT_EQ(p.nextCtr(), 0u);
    EXPECT_EQ(p.frontReady(), 40u);
}

TEST(PadPipeline, CountersClaimedInSequence)
{
    PadPipeline p;
    p.init(0, 40, 2, 100);
    EXPECT_EQ(p.claim(50).ctr, 100u);
    EXPECT_EQ(p.claim(50).ctr, 101u);
    EXPECT_EQ(p.claim(50).ctr, 102u);
}

TEST(PadPipeline, WarmPipelineHits)
{
    PadPipeline p;
    p.init(0, 40, 4, 0);
    const auto c = p.claim(100);
    EXPECT_LE(c.ready, 100u);
    EXPECT_EQ(PadPipeline::classify(100, c.ready, 40),
              OtpOutcome::Hit);
}

TEST(PadPipeline, ClassifyBoundaries)
{
    EXPECT_EQ(PadPipeline::classify(100, 100, 40), OtpOutcome::Hit);
    EXPECT_EQ(PadPipeline::classify(100, 101, 40),
              OtpOutcome::Partial);
    EXPECT_EQ(PadPipeline::classify(100, 139, 40),
              OtpOutcome::Partial);
    EXPECT_EQ(PadPipeline::classify(100, 140, 40), OtpOutcome::Miss);
    EXPECT_EQ(PadPipeline::classify(100, 500, 40), OtpOutcome::Miss);
}

TEST(PadPipeline, SustainedThroughputIsQuotaOverLatency)
{
    // Claim as fast as possible: the k-th pad cannot be ready before
    // init + ceil((k - quota)/quota) * latency-ish; check the 41st
    // claim of a 4-deep pipeline with L=40 is near tick 40*10.
    PadPipeline p;
    p.init(0, 40, 4, 0);
    Tick t = 0;
    for (int k = 0; k < 40; ++k) {
        const auto c = p.claim(t);
        t = std::max(t, c.ready);
    }
    // 40 pads at 4 per 40 cycles => ~400 cycles.
    EXPECT_GE(t, 360u);
    EXPECT_LE(t, 440u);
}

TEST(PadPipeline, DeeperQuotaSustainsProportionallyMore)
{
    PadPipeline p;
    p.init(0, 40, 8, 0);
    Tick t = 0;
    for (int k = 0; k < 40; ++k) {
        const auto c = p.claim(t);
        t = std::max(t, c.ready);
    }
    EXPECT_LE(t, 240u); // 40 pads at 8 per 40 cycles => ~200
}

TEST(PadPipeline, SlowConsumerAlwaysHits)
{
    PadPipeline p;
    p.init(0, 40, 2, 0);
    Tick now = 100;
    for (int i = 0; i < 10; ++i) {
        const auto c = p.claim(now);
        EXPECT_EQ(PadPipeline::classify(now, c.ready, 40),
                  OtpOutcome::Hit)
            << "claim " << i;
        now += 40; // consuming at exactly quota/latency rate
    }
}

TEST(PadPipeline, QuotaZeroSerializesOnDemand)
{
    PadPipeline p;
    p.init(0, 40, 0, 7);
    const auto a = p.claim(100);
    EXPECT_EQ(a.ctr, 7u);
    EXPECT_EQ(a.ready, 140u);
    const auto b = p.claim(101);
    EXPECT_EQ(b.ready, 180u); // serialized behind a
}

TEST(PadPipeline, ResizeGrowAddsSlotsStartingNow)
{
    PadPipeline p;
    p.init(0, 40, 1, 0);
    p.claim(1000);
    p.resize(1000, 3);
    EXPECT_EQ(p.quota(), 3u);
    // Claims for the two new slots are ready at 1040.
    p.claim(2000);
    const auto c = p.claim(2000);
    EXPECT_LE(c.ready, 2000u);
}

TEST(PadPipeline, ResizeShrinkDropsHighestCounters)
{
    PadPipeline p;
    p.init(0, 40, 4, 0);
    p.resize(10, 2);
    EXPECT_EQ(p.quota(), 2u);
    // Front counters unaffected.
    EXPECT_EQ(p.claim(100).ctr, 0u);
    EXPECT_EQ(p.claim(100).ctr, 1u);
}

TEST(PadPipeline, ResyncRestartsAtNewCounter)
{
    PadPipeline p;
    p.init(0, 40, 4, 0);
    p.claim(100);
    p.resync(200, 500);
    EXPECT_EQ(p.nextCtr(), 500u);
    const auto c = p.claim(200);
    EXPECT_EQ(c.ctr, 500u);
    EXPECT_EQ(c.ready, 240u); // full regeneration latency
}

TEST(PadPipeline, BurstBeyondQuotaDegradesToMisses)
{
    PadPipeline p;
    p.init(0, 40, 2, 0);
    // At tick 1000 the two staged pads are ready; a burst of 6
    // arrives at once.
    std::vector<OtpOutcome> outcomes;
    for (int i = 0; i < 6; ++i) {
        const auto c = p.claim(1000);
        outcomes.push_back(PadPipeline::classify(1000, c.ready, 40));
    }
    EXPECT_EQ(outcomes[0], OtpOutcome::Hit);
    EXPECT_EQ(outcomes[1], OtpOutcome::Hit);
    // Refills for the 3rd+ pads start only when earlier pads are
    // consumed (now), so the full latency (or more) is exposed.
    EXPECT_EQ(outcomes[2], OtpOutcome::Miss);
    EXPECT_EQ(outcomes[3], OtpOutcome::Miss);
    EXPECT_EQ(outcomes[4], OtpOutcome::Miss);
    EXPECT_EQ(outcomes[5], OtpOutcome::Miss);
}

TEST(PadPipeline, NamesForDiagnostics)
{
    EXPECT_STREQ(otpOutcomeName(OtpOutcome::Hit), "hit");
    EXPECT_STREQ(otpOutcomeName(OtpOutcome::Partial), "partial");
    EXPECT_STREQ(otpOutcomeName(OtpOutcome::Miss), "miss");
    EXPECT_STREQ(directionName(Direction::Send), "send");
    EXPECT_STREQ(directionName(Direction::Recv), "recv");
}

/** Property: ready times handed out per pipeline never go backwards
 *  when claims are issued at non-decreasing times. */
class PipelineMonotone : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(PipelineMonotone, ClaimReadyTimesAreNonDecreasing)
{
    PadPipeline p;
    p.init(0, 40, GetParam(), 0);
    Tick now = 0;
    Tick last_ready = 0;
    for (int i = 0; i < 200; ++i) {
        now += static_cast<Tick>(i % 7);
        const auto c = p.claim(now);
        const Tick eff = std::max(now, c.ready);
        EXPECT_GE(eff, last_ready);
        last_ready = eff;
    }
}

INSTANTIATE_TEST_SUITE_P(Quotas, PipelineMonotone,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

// ------------------------------------------- ring against a deque model

TEST(Ring, RandomOpsMatchDeque)
{
    std::mt19937_64 rng(5);
    Ring<std::uint64_t> ring;
    std::deque<std::uint64_t> model;
    EXPECT_EQ(ring.capacity(), 0u); // nothing allocated before use
    for (int op = 0; op < 20000; ++op) {
        const unsigned kind = rng() % 10;
        if (kind < 4) {
            const std::uint64_t v = rng();
            ring.push_back(v);
            model.push_back(v);
        } else if (kind < 7 && !model.empty()) {
            ring.pop_front();
            model.pop_front();
        } else if (kind == 7 && !model.empty()) {
            ring.pop_back();
            model.pop_back();
        } else if (kind == 8) {
            const std::uint64_t v = rng();
            ring.fill(v);
            std::fill(model.begin(), model.end(), v);
        } else if (rng() % 64 == 0) {
            ring.clear();
            model.clear();
        }
        ASSERT_EQ(ring.size(), model.size()) << "op " << op;
        for (std::size_t i = 0; i < model.size(); ++i)
            ASSERT_EQ(ring[i], model[i]) << "op " << op << " i " << i;
        if (!model.empty()) {
            ASSERT_EQ(ring.front(), model.front());
        }
    }
}

TEST(Ring, FullRingCyclesInPlace)
{
    Ring<Tick> ring;
    ring.reserve(3);
    for (Tick t = 0; t < 3; ++t)
        ring.push_back(t);
    for (Tick t = 3; t < 100; ++t) {
        EXPECT_EQ(ring.front(), t - 3);
        ring.pop_front();
        ring.push_back(t);
        ASSERT_EQ(ring.capacity(), 3u);
    }
}

namespace
{

/**
 * The pipeline as a deque of ready ticks, counter order: the layout
 * PadPipeline had before its staging slots became a fixed ring.
 */
struct DequePipeline
{
    Cycles latency = 40;
    std::uint64_t frontCtr = 0;
    std::deque<Tick> ready;
    Tick ondemandFree = 0;
    std::uint64_t wasted = 0;

    void
    init(Tick now, Cycles lat, std::uint32_t quota, std::uint64_t ctr)
    {
        latency = lat;
        frontCtr = ctr;
        ready.assign(quota, now + latency);
        ondemandFree = now;
    }

    PadPipeline::Claim
    claim(Tick now)
    {
        PadPipeline::Claim c;
        c.ctr = frontCtr++;
        if (ready.empty()) {
            c.ready = std::max(now, ondemandFree) + latency;
            ondemandFree = c.ready;
            return c;
        }
        c.ready = ready.front();
        ready.pop_front();
        ready.push_back(std::max(now, c.ready) + latency);
        return c;
    }

    void
    resize(Tick now, std::uint32_t quota)
    {
        if (quota == ready.size())
            return;
        while (ready.size() > quota) {
            ready.pop_back();
            ++wasted;
        }
        while (ready.size() < quota)
            ready.push_back(now + latency);
        if (quota > 0)
            ondemandFree = now;
    }

    void
    resync(Tick now, std::uint64_t ctr)
    {
        wasted += ready.size();
        frontCtr = ctr;
        std::fill(ready.begin(), ready.end(), now + latency);
        ondemandFree = now;
    }

    std::uint32_t
    readyAt(Tick now) const
    {
        return static_cast<std::uint32_t>(
            std::count_if(ready.begin(), ready.end(),
                          [now](Tick t) { return t <= now; }));
    }
};

void
expectSameState(const PadPipeline &p, const DequePipeline &m, Tick now)
{
    EXPECT_EQ(p.quota(), m.ready.size());
    EXPECT_EQ(p.nextCtr(), m.frontCtr);
    EXPECT_EQ(p.frontReady(), m.ready.empty() ? MaxTick : m.ready.front());
    EXPECT_EQ(p.wastedGenerations(), m.wasted);
    EXPECT_EQ(p.readyAt(now), m.readyAt(now));
}

} // anonymous namespace

TEST(PadPipelineRing, ResizeAfterWrapKeepsCounterOrder)
{
    PadPipeline p;
    DequePipeline m;
    p.init(0, 40, 3, 0);
    m.init(0, 40, 3, 0);
    Tick now = 0;
    // Seven claims on three slots: the head has wrapped twice.
    for (int i = 0; i < 7; ++i) {
        now += 13;
        const auto a = p.claim(now);
        const auto b = m.claim(now);
        ASSERT_EQ(a.ctr, b.ctr);
        ASSERT_EQ(a.ready, b.ready);
    }
    for (std::uint32_t quota : {5u, 2u, 6u, 1u, 4u}) {
        now += 7;
        p.resize(now, quota);
        m.resize(now, quota);
        expectSameState(p, m, now);
        for (std::uint32_t i = 0; i < quota + 2; ++i) {
            now += 11;
            const auto a = p.claim(now);
            const auto b = m.claim(now);
            ASSERT_EQ(a.ctr, b.ctr);
            ASSERT_EQ(a.ready, b.ready);
        }
    }
    now += 5;
    p.resync(now, 900);
    m.resync(now, 900);
    expectSameState(p, m, now);
}

TEST(PadPipelineRing, RandomOpsMatchDequeModel)
{
    std::mt19937_64 rng(20240301);
    for (int trial = 0; trial < 50; ++trial) {
        PadPipeline p;
        DequePipeline m;
        const std::uint32_t quota0 = rng() % 6;
        const Cycles lat = 1 + rng() % 60;
        p.init(5, lat, quota0, 10);
        m.init(5, lat, quota0, 10);
        Tick now = 5;
        for (int op = 0; op < 400; ++op) {
            now += rng() % 30;
            const unsigned kind = rng() % 16;
            if (kind < 12) {
                const auto a = p.claim(now);
                const auto b = m.claim(now);
                ASSERT_EQ(a.ctr, b.ctr) << "trial " << trial;
                ASSERT_EQ(a.ready, b.ready) << "trial " << trial;
            } else if (kind < 15) {
                const std::uint32_t q = rng() % 9;
                p.resize(now, q);
                m.resize(now, q);
            } else {
                const std::uint64_t ctr = rng() % 1000;
                p.resync(now, ctr);
                m.resync(now, ctr);
            }
            expectSameState(p, m, now);
            if (::testing::Test::HasFailure())
                return;
        }
    }
}
