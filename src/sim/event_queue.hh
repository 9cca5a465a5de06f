/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single global-ordered queue of (tick, priority, sequence) keyed
 * callbacks. Events scheduled for the same tick and priority execute
 * in scheduling (FIFO) order, which every higher-level component
 * relies on for in-order link delivery and deterministic replays.
 *
 * Storage is split in two so the heap never moves a callback:
 *  - a slab of {seq, Callback} slots with a free list. schedule()
 *    moves the callback into a free slot once; the event's seq
 *    stamped on the slot marks it live.
 *  - a 4-ary min-heap of 24-byte keys (when, pri<<56 | seq, slot).
 *    Sifts copy keys only, and a 4-ary heap halves the depth of a
 *    binary one.
 *
 * Cancellation is lazy: cancel() checks that the slot still carries
 * the id's seq, clears the stamp and destroys the callback; the key
 * stays in the heap. A popped key whose slot no longer carries its
 * seq is such a leftover: the key is dropped and only then is the
 * slot freed, so a slot is never reused while a key points at it
 * and a stale EventId can never cancel the slot's next tenant.
 *
 * Before running, the callback is moved out of its slot and the
 * slot freed. It never runs in place, because the callback may
 * schedule and grow the slab under itself.
 *
 * Steady-state schedule()/runOne() perform no heap allocation:
 * callbacks live inline in their slot (InplaceCallback — an
 * oversized capture is a compile error, not a malloc), and reserve()
 * pre-sizes the heap, the slab and the free list from a
 * caller-supplied event ceiling so none of them grows mid-run.
 */

#ifndef MGSEC_SIM_EVENT_QUEUE_HH
#define MGSEC_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/inplace_function.hh"
#include "sim/types.hh"

namespace mgsec
{

class LatencyAttribution;
class Profiler;
class TraceLane;

/**
 * Same-tick ordering class; lower runs first. Almost everything uses
 * kPriNormal, keeping pure-FIFO same-tick order. kPriWire is for
 * wire deliveries (net/network.hh): a delivery is scheduled at a
 * window barrier or a send tick's flush, so its FIFO position among
 * the arrival tick's events would depend on when that happened.
 * Sorting deliveries ahead of local work makes the interleaving a
 * pure function of simulation state.
 */
enum EventPri : std::uint8_t
{
    kPriWire = 0,
    kPriNormal = 1,
};

/**
 * Handle returned by EventQueue::schedule(); lets the creator cancel
 * the event before it fires.
 */
struct EventId
{
    std::uint64_t seq = 0;
    std::uint32_t slot = 0; ///< slab slot the event occupies

    bool valid() const { return seq != 0; }
    bool operator==(const EventId &o) const
    {
        return seq == o.seq && slot == o.slot;
    }
};

/**
 * The event queue. Owns simulated time: time only advances when
 * events execute.
 */
class EventQueue
{
  public:
    /**
     * Inline callback storage: six words of capture. The largest
     * schedulers (response completions capturing requester, txn and
     * flags) use four; anything bigger fails to compile rather than
     * silently heap-allocating.
     */
    using Callback = InplaceCallback<48>;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated tick. */
    Tick now() const { return now_; }

    /**
     * Pre-size the key heap, slab and free list for @p expected_pending
     * simultaneously-live events so steady-state scheduling never
     * reallocates. A hint smaller than the real peak only costs the
     * usual amortized growth; it never affects results.
     */
    void reserve(std::size_t expected_pending);

    /**
     * Schedule @p cb to run at absolute tick @p when.
     * @pre when >= now()
     * @return a handle usable with cancel().
     */
    EventId schedule(Tick when, Callback cb)
    {
        return push(when, kPriNormal, cb);
    }

    /** Schedule with an explicit same-tick ordering class. */
    EventId schedule(Tick when, EventPri pri, Callback cb)
    {
        return push(when, pri, cb);
    }

    /** Schedule @p cb to run @p delta ticks from now. */
    EventId scheduleIn(Cycles delta, Callback cb)
    {
        return push(now_ + delta, kPriNormal, cb);
    }

    /**
     * Cancel a pending event.
     * @retval true the event existed and will not run.
     * @retval false the event already ran, was cancelled, or never
     *               existed.
     */
    bool cancel(EventId id);

    /** True when no runnable events remain. */
    bool empty() const { return live_ == 0; }

    /** Number of pending (non-cancelled) events. */
    std::uint64_t pending() const { return live_; }

    /**
     * Execute the next event, advancing time to it.
     * @retval false the queue was empty.
     */
    bool runOne();

    /**
     * Run until the queue drains, @p until is passed, or
     * @p max_events have executed.
     * @return number of events executed.
     */
    std::uint64_t run(Tick until = MaxTick,
                      std::uint64_t max_events = UINT64_MAX);

    /** Total events executed over the queue's lifetime. */
    std::uint64_t executed() const { return executed_; }

    /**
     * Tick of the earliest live event, or MaxTick when the queue is
     * drained. Pops lazily-cancelled leftovers off the heap top on
     * the way (never a live event), so the amortized cost matches
     * runOne()'s. The parallel kernel uses this to skip idle barrier
     * windows.
     */
    Tick nextPendingTick();

    /**
     * Domain this queue belongs to under the window kernel
     * (sim/domain.hh); 0 — the host domain — for a queue driven by
     * a plain event loop.
     */
    DomainId domainId() const { return domain_id_; }
    void setDomainId(DomainId d) { domain_id_ = d; }

    /**
     * This queue's lane of the timeline sink, shared by every
     * component on the queue, or nullptr when tracing is off. Living
     * on the queue keeps the lane per-domain (only the domain's own
     * thread writes it) and makes the disabled case a single pointer
     * test at each hook.
     */
    TraceLane *traceLane() const { return trace_lane_; }
    /** Attach/detach the lane; the caller retains ownership. */
    void setTraceLane(TraceLane *lane) { trace_lane_ = lane; }

    /**
     * Latency-attribution collector shared by every component on
     * this queue, or nullptr when attribution is off — same
     * single-pointer-test contract as traceLane().
     */
    LatencyAttribution *attribution() const { return attr_; }
    /** Attach/detach the collector; the caller retains ownership. */
    void setAttribution(LatencyAttribution *attr) { attr_ = attr; }

    /**
     * Host-side self-profiler shared by every component on this
     * queue, or nullptr when profiling is off — same
     * single-pointer-test contract as traceLane(). Instrumented
     * components pass domainId() so their spans land on the lane of
     * the worker that owns this queue.
     */
    Profiler *profiler() const { return profiler_; }
    /** Attach/detach the profiler; the caller retains ownership. */
    void setProfiler(Profiler *prof) { profiler_ = prof; }

  private:
    /** Heap key; ordered by (when, order). */
    struct Key
    {
        Tick when;
        std::uint64_t order; ///< pri << kPriShift | seq
        std::uint32_t slot;
    };

    struct Slot
    {
        std::uint64_t seq = 0; ///< 0 while free or cancelled
        Callback cb;
    };

    static constexpr unsigned kPriShift = 56;
    static constexpr std::uint64_t kSeqMask =
        (std::uint64_t{1} << kPriShift) - 1;

    static bool
    before(const Key &a, const Key &b)
    {
        return a.when != b.when ? a.when < b.when : a.order < b.order;
    }

    /** True when @p k's slot still holds the event @p k was made for. */
    bool
    live(const Key &k) const
    {
        return slots_[k.slot].seq == (k.order & kSeqMask);
    }

    /** Move @p cb into a slot and push its key. */
    EventId push(Tick when, EventPri pri, Callback &cb);
    /** Remove the heap top (the caller has read it). */
    void popTop();
    /** Drop the heap top, a lazily-cancelled leftover, freeing its slot. */
    void dropTop();
    /** Pop the (live) heap top and run its callback. */
    void runTop();

    /** 4-ary min-heap of keys. */
    std::vector<Key> heap_;
    /** Callback slab; a slot is owned by exactly one key while used. */
    std::vector<Slot> slots_;
    /** Unused slots, reused LIFO. */
    std::vector<std::uint32_t> free_;
    Tick now_ = 0;
    DomainId domain_id_ = 0;
    std::uint64_t next_seq_ = 1;
    std::uint64_t live_ = 0;
    std::uint64_t executed_ = 0;
    TraceLane *trace_lane_ = nullptr;
    LatencyAttribution *attr_ = nullptr;
    Profiler *profiler_ = nullptr;
};

} // namespace mgsec

#endif // MGSEC_SIM_EVENT_QUEUE_HH
