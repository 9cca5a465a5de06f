/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "mem/tlb.hh"
#include "sim/event_queue.hh"

using namespace mgsec;

namespace
{

/** Global operator new calls, for the allocation-free tests below. */
std::atomic<std::uint64_t> g_news{0};

} // anonymous namespace

// The replacements pair malloc with free on purpose; GCC cannot see
// that both sides are replaced and warns about the mix.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *
operator new(std::size_t n)
{
    g_news.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n != 0 ? n : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

TEST(EventQueue, StartsAtTickZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_FALSE(eq.runOne());
}

TEST(EventQueue, RunOneAdvancesTime)
{
    EventQueue eq;
    bool ran = false;
    eq.schedule(42, [&]() { ran = true; });
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_TRUE(eq.runOne());
    EXPECT_TRUE(ran);
    EXPECT_EQ(eq.now(), 42u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&]() { order.push_back(3); });
    eq.schedule(10, [&]() { order.push_back(1); });
    eq.schedule(20, [&]() { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i]() { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, ScheduleInIsRelative)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(100, [&]() {
        eq.scheduleIn(5, [&]() { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 105u);
}

TEST(EventQueue, EventsCanScheduleAtCurrentTick)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(7, [&]() {
        eq.schedule(7, [&]() { ++count; });
    });
    eq.run();
    EXPECT_EQ(count, 1);
    EXPECT_EQ(eq.now(), 7u);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue eq;
    bool ran = false;
    EventId id = eq.schedule(10, [&]() { ran = true; });
    EXPECT_TRUE(eq.cancel(id));
    eq.run();
    EXPECT_FALSE(ran);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, CancelTwiceFails)
{
    EventQueue eq;
    EventId id = eq.schedule(10, []() {});
    EXPECT_TRUE(eq.cancel(id));
    EXPECT_FALSE(eq.cancel(id));
}

TEST(EventQueue, CancelInvalidIdFails)
{
    EventQueue eq;
    EXPECT_FALSE(eq.cancel(EventId{}));
    EXPECT_FALSE(eq.cancel(EventId{999}));
}

TEST(EventQueue, CancelAfterExecutionFails)
{
    EventQueue eq;
    EventId id = eq.schedule(1, []() {});
    eq.run();
    EXPECT_FALSE(eq.cancel(id));
}

TEST(EventQueue, RunUntilBound)
{
    EventQueue eq;
    int count = 0;
    for (Tick t = 10; t <= 100; t += 10)
        eq.schedule(t, [&]() { ++count; });
    const std::uint64_t n = eq.run(50);
    EXPECT_EQ(n, 5u);
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.now(), 50u);
    eq.run();
    EXPECT_EQ(count, 10);
}

TEST(EventQueue, RunMaxEventsBound)
{
    EventQueue eq;
    int count = 0;
    for (int i = 0; i < 10; ++i)
        eq.schedule(static_cast<Tick>(i + 1), [&]() { ++count; });
    eq.run(MaxTick, 3);
    EXPECT_EQ(count, 3);
}

TEST(EventQueue, PendingTracksCancellations)
{
    EventQueue eq;
    EventId a = eq.schedule(5, []() {});
    eq.schedule(6, []() {});
    EXPECT_EQ(eq.pending(), 2u);
    eq.cancel(a);
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_FALSE(eq.empty());
}

TEST(EventQueue, ExecutedCounterAccumulates)
{
    EventQueue eq;
    for (int i = 0; i < 5; ++i)
        eq.schedule(static_cast<Tick>(i + 1), []() {});
    eq.run();
    EXPECT_EQ(eq.executed(), 5u);
}

TEST(EventQueue, CascadedEventsDrain)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&]() {
        if (++depth < 100)
            eq.scheduleIn(1, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(depth, 100);
    EXPECT_EQ(eq.now(), 99u);
}

TEST(EventQueue, RunUntilSkipsCancelledHead)
{
    EventQueue eq;
    bool ran = false;
    EventId a = eq.schedule(10, []() {});
    eq.schedule(20, [&]() { ran = true; });
    eq.cancel(a);
    eq.run(15);
    EXPECT_FALSE(ran);
    eq.run(25);
    EXPECT_TRUE(ran);
}

TEST(EventQueue, CancelFromSameTickEvent)
{
    // An event cancelling a later same-tick sibling: with lazy
    // cancellation the sibling's heap entry is already ordered, so
    // this exercises the pop-time liveness check.
    EventQueue eq;
    bool ran = false;
    EventId victim{};
    eq.schedule(5, [&]() { EXPECT_TRUE(eq.cancel(victim)); });
    victim = eq.schedule(5, [&]() { ran = true; });
    eq.run();
    EXPECT_FALSE(ran);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.executed(), 1u);
}

TEST(EventQueue, CancelAfterLazyPopFails)
{
    // run(until) peeks past a cancelled head without executing it;
    // cancelling that id again must still fail and must not corrupt
    // the live-event counter.
    EventQueue eq;
    EventId a = eq.schedule(10, []() {});
    eq.schedule(20, []() {});
    eq.cancel(a);
    eq.run(15); // pops a's stale heap entry while skipping it
    EXPECT_FALSE(eq.cancel(a));
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_EQ(eq.run(), 1u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, RunOneSkipsLeadingCancellations)
{
    EventQueue eq;
    std::vector<EventId> ids;
    bool ran = false;
    for (Tick t = 1; t <= 4; ++t)
        ids.push_back(eq.schedule(t, []() {}));
    eq.schedule(5, [&]() { ran = true; });
    for (EventId id : ids)
        eq.cancel(id);
    // One runOne() must chew through all four stale entries and
    // execute the live event behind them.
    EXPECT_TRUE(eq.runOne());
    EXPECT_TRUE(ran);
    EXPECT_EQ(eq.now(), 5u);
    EXPECT_EQ(eq.executed(), 1u);
}

TEST(EventQueue, FifoOrderSurvivesInterleavedCancelsAtScale)
{
    // Scheduling micro-benchmark shaped like the simulator's hot
    // path: tens of thousands of events across a few ticks, every
    // third one cancelled. Guards the same-tick FIFO contract the
    // pipelined secure channel depends on.
    constexpr int kEvents = 30000;
    EventQueue eq;
    std::vector<int> order;
    order.reserve(kEvents);
    std::vector<EventId> ids;
    ids.reserve(kEvents);
    for (int i = 0; i < kEvents; ++i) {
        const Tick t = static_cast<Tick>(i / 1000); // 1000 per tick
        ids.push_back(
            eq.schedule(t, [&order, i]() { order.push_back(i); }));
    }
    std::uint64_t cancelled = 0;
    for (int i = 0; i < kEvents; i += 3) {
        EXPECT_TRUE(eq.cancel(ids[static_cast<std::size_t>(i)]));
        ++cancelled;
    }
    EXPECT_EQ(eq.pending(), kEvents - cancelled);
    eq.run();

    ASSERT_EQ(order.size(), kEvents - cancelled);
    int prev = -1;
    for (int got : order) {
        EXPECT_GT(got, prev); // submission order within & across ticks
        EXPECT_NE(got % 3, 0); // no cancelled event executed
        prev = got;
    }
    EXPECT_EQ(eq.executed(), kEvents - cancelled);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, MoveOnlyCallbacksAreSupported)
{
    // Callbacks live in inline storage (InplaceCallback), which —
    // unlike std::function — accepts move-only captures, so owners
    // can hand resources to their completion events.
    EventQueue eq;
    auto owned = std::make_unique<int>(41);
    int seen = 0;
    eq.schedule(1, [&seen, p = std::move(owned)]() {
        seen = *p + 1;
    });
    eq.run();
    EXPECT_EQ(seen, 42);
}

TEST(EventQueue, ReservePreservesSemantics)
{
    // reserve() is a pure capacity hint: scheduling, cancellation,
    // and ordering behave identically with or without it, including
    // when the population overflows the hint.
    EventQueue eq;
    eq.reserve(8);
    std::vector<int> order;
    std::vector<EventId> ids;
    for (int i = 0; i < 100; ++i) {
        ids.push_back(eq.schedule(static_cast<Tick>(i % 10 + 1),
                                  [&order, i]() {
                                      order.push_back(i);
                                  }));
    }
    for (int i = 0; i < 100; i += 2)
        EXPECT_TRUE(eq.cancel(ids[static_cast<std::size_t>(i)]));
    eq.run();
    ASSERT_EQ(order.size(), 50u);
    for (int got : order)
        EXPECT_EQ(got % 2, 1);
}

TEST(EventQueue, RandomizedScheduleCancelStress)
{
    // Hammers the slot slab and its seq stamps with a deterministic
    // random schedule/cancel mix and checks exactly the surviving
    // events fire.
    constexpr int kEvents = 20000;
    std::mt19937 rng(12345);
    EventQueue eq;
    std::vector<EventId> ids;
    std::set<int> expected;
    std::set<int> fired;
    ids.reserve(kEvents);
    for (int i = 0; i < kEvents; ++i) {
        const Tick t = rng() % 512 + 1;
        ids.push_back(eq.schedule(t, [&fired, i]() {
            fired.insert(i);
        }));
        expected.insert(i);
    }
    // Cancel a random ~40%, with some double-cancels mixed in.
    for (int i = 0; i < kEvents; ++i) {
        if (rng() % 5 < 2) {
            EXPECT_TRUE(eq.cancel(ids[static_cast<std::size_t>(i)]));
            EXPECT_FALSE(eq.cancel(ids[static_cast<std::size_t>(i)]));
            expected.erase(i);
        }
    }
    eq.run();
    EXPECT_EQ(fired, expected);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.executed(), expected.size());
}

TEST(EventQueue, CancelledHeadPastUntilIsDropped)
{
    // The head is a cancelled leftover beyond the bound: run() drops
    // it (freeing its slot) but must keep the live event behind it.
    EventQueue eq;
    EventId a = eq.schedule(30, []() {});
    bool ran = false;
    eq.schedule(40, [&]() { ran = true; });
    EXPECT_TRUE(eq.cancel(a));
    EXPECT_EQ(eq.run(20), 0u);
    EXPECT_FALSE(ran);
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_EQ(eq.nextPendingTick(), 40u);
    EXPECT_FALSE(eq.cancel(a));
    EXPECT_EQ(eq.run(), 1u);
    EXPECT_TRUE(ran);
}

TEST(EventQueue, StaleIdCannotCancelSlotReuser)
{
    // Slots are recycled; a stale handle to a slot's earlier tenant
    // must not cancel the current one.
    EventQueue eq;
    EventId old = eq.schedule(1, []() {});
    eq.run();
    bool ran = false;
    EventId fresh = eq.schedule(2, [&]() { ran = true; });
    EXPECT_EQ(fresh.slot, old.slot);
    EXPECT_FALSE(eq.cancel(old));
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_TRUE(ran);
}

namespace
{

/**
 * Runs an EventQueue in lockstep with a reference model: a multimap
 * keyed (when, pri), whose insertion order within equal keys is the
 * FIFO the queue promises. Every callback checks it is the model's
 * head, then replays a random plan (cancel some id, schedule a
 * child) on both sides.
 */
class EqDifferential
{
  public:
    explicit EqDifferential(std::uint64_t seed) : rng_(seed) {}

    void
    step()
    {
        switch (rng_() % 8) {
          case 0:
          case 1:
          case 2:
            add(eq_.now() + rng_() % 24, randomPri());
            break;
          case 3:
            cancelBoth(randomTag());
            break;
          case 4: {
            const std::uint64_t before = fired_;
            const bool ran = eq_.runOne();
            EXPECT_EQ(ran, fired_ == before + 1);
            if (!ran) {
                EXPECT_TRUE(model_.empty());
            }
            break;
          }
          case 5:
          case 6: {
            const Tick until = eq_.now() + rng_() % 32;
            const std::uint64_t max = rng_() % 4 == 0 ? rng_() % 6
                                                      : UINT64_MAX;
            const std::uint64_t before = fired_;
            const std::uint64_t n = eq_.run(until, max);
            EXPECT_EQ(n, fired_ - before);
            if (n < max) {
                EXPECT_TRUE(model_.empty() ||
                            model_.begin()->first.first > until);
            }
            break;
          }
          default:
            EXPECT_EQ(eq_.nextPendingTick(),
                      model_.empty() ? MaxTick
                                     : model_.begin()->first.first);
            break;
        }
        EXPECT_EQ(eq_.pending(), model_.size());
        EXPECT_EQ(eq_.empty(), model_.empty());
    }

    void
    drain()
    {
        eq_.run();
        EXPECT_TRUE(model_.empty());
        EXPECT_EQ(eq_.executed(), fired_);
    }

    std::uint64_t fired() const { return fired_; }
    std::uint64_t cancels() const { return cancels_; }

  private:
    using Model = std::multimap<std::pair<Tick, int>, int>;

    struct Plan
    {
        int cancel = -1;    ///< tag to cancel when fired, or -1
        bool child = false; ///< schedule one more event when fired
    };

    EventPri
    randomPri()
    {
        return rng_() % 4 == 0 ? kPriWire : kPriNormal;
    }

    /** Any tag ever issued: live, fired or cancelled. */
    int
    randomTag()
    {
        return ids_.empty() ? -1 : static_cast<int>(rng_() % ids_.size());
    }

    void
    add(Tick when, EventPri pri)
    {
        const int tag = static_cast<int>(ids_.size());
        Plan plan;
        if (rng_() % 3 == 0)
            plan.cancel = randomTag();
        plan.child = rng_() % 3 == 0;
        plans_.push_back(plan);
        ids_.push_back(eq_.schedule(when, pri, [this, tag]() {
            fire(tag);
        }));
        live_.push_back(model_.emplace(std::make_pair(when, int{pri}),
                                       tag));
        alive_.push_back(true);
    }

    void
    cancelBoth(int tag)
    {
        if (tag < 0)
            return;
        const std::size_t t = static_cast<std::size_t>(tag);
        const bool expect = alive_[t];
        if (expect) {
            model_.erase(live_[t]);
            alive_[t] = false;
            ++cancels_;
        }
        EXPECT_EQ(eq_.cancel(ids_[t]), expect) << "tag " << tag;
    }

    void
    fire(int tag)
    {
        ASSERT_FALSE(model_.empty());
        const auto head = model_.begin();
        EXPECT_EQ(head->second, tag);
        EXPECT_EQ(head->first.first, eq_.now());
        alive_[static_cast<std::size_t>(head->second)] = false;
        model_.erase(head);
        ++fired_;
        const Plan plan = plans_[static_cast<std::size_t>(tag)];
        cancelBoth(plan.cancel);
        if (plan.child)
            add(eq_.now() + rng_() % 8, randomPri());
    }

    EventQueue eq_;
    std::mt19937_64 rng_;
    Model model_;
    std::vector<EventId> ids_;
    std::vector<Model::iterator> live_;
    std::vector<bool> alive_;
    std::vector<Plan> plans_;
    std::uint64_t fired_ = 0;
    std::uint64_t cancels_ = 0;
};

} // anonymous namespace

TEST(EventQueue, MatchesOrderedMultimapModel)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE(seed);
        EqDifferential d(seed);
        for (int i = 0; i < 4000; ++i)
            d.step();
        d.drain();
        EXPECT_GT(d.fired(), 0u);
        EXPECT_GT(d.cancels(), 0u);
        if (::testing::Test::HasFailure())
            break;
    }
}

TEST(EventQueue, WarmChurnAllocatesNothing)
{
    // After reserve(), steady-state schedule/runOne/cancel must not
    // touch the allocator: callbacks live inline in slab slots.
    EventQueue eq;
    eq.reserve(4096);
    std::mt19937 rng(3);
    std::uint64_t fired = 0;
    struct Rearm
    {
        EventQueue *eq;
        std::mt19937 *rng;
        std::uint64_t *fired;

        void
        operator()() const
        {
            ++*fired;
            eq->scheduleIn(1 + (*rng)() % 256, *this);
        }
    };
    for (int i = 0; i < 512; ++i)
        eq.scheduleIn(1 + rng() % 256, Rearm{&eq, &rng, &fired});
    const auto churn = [&](int ops) {
        for (int i = 0; i < ops; ++i) {
            eq.runOne();
            if (i % 4 == 0) {
                EventId id = eq.scheduleIn(1 + rng() % 256, []() {});
                eq.cancel(id);
            }
        }
    };
    churn(20000);
    const std::uint64_t before = g_news.load();
    churn(100000);
    EXPECT_EQ(g_news.load() - before, 0u);
    EXPECT_GT(fired, 100000u);
    EXPECT_EQ(eq.pending(), 512u);
}

TEST(TlbAlloc, WarmLookupAndInvalidateAllocateNothing)
{
    EventQueue eq;
    Tlb t("t", eq, TlbParams{64, 1});
    std::mt19937 rng(5);
    const auto churn = [&](int ops) {
        for (int i = 0; i < ops; ++i) {
            const std::uint64_t page = rng() % 200;
            if (rng() % 8 == 0)
                t.invalidate(page);
            else
                t.lookup(page);
        }
    };
    churn(5000);
    const std::uint64_t before = g_news.load();
    churn(50000);
    EXPECT_EQ(g_news.load() - before, 0u);
    EXPECT_GT(t.evictions(), 0u);
}

TEST(EventQueueDeath, SchedulingIntoThePastPanics)
{
    EventQueue eq;
    eq.schedule(50, []() {});
    eq.run();
    EXPECT_DEATH(eq.schedule(10, []() {}), "past");
}
