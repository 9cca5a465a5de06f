#include "sim/event_queue.hh"

#include <utility>

#include "sim/logging.hh"

namespace mgsec
{

void
EventQueue::reserve(std::size_t expected_pending)
{
    heap_.reserve(expected_pending);
    slots_.reserve(expected_pending);
    free_.reserve(expected_pending);
}

EventId
EventQueue::push(Tick when, EventPri pri, Callback &cb)
{
    MGSEC_ASSERT(when >= now_,
                 "scheduling into the past: when=%llu now=%llu",
                 static_cast<unsigned long long>(when),
                 static_cast<unsigned long long>(now_));
    MGSEC_ASSERT(static_cast<bool>(cb), "null event callback");
    const std::uint64_t seq = next_seq_++;
    MGSEC_ASSERT(seq <= kSeqMask, "event sequence space exhausted");

    std::uint32_t slot;
    if (!free_.empty()) {
        slot = free_.back();
        free_.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    Slot &s = slots_[slot];
    s.seq = seq;
    s.cb = std::move(cb);

    // Sift up: move parents down into the hole, then drop the key in.
    const Key key{when, std::uint64_t{pri} << kPriShift | seq, slot};
    std::size_t hole = heap_.size();
    heap_.emplace_back();
    while (hole > 0) {
        const std::size_t parent = (hole - 1) / 4;
        if (!before(key, heap_[parent]))
            break;
        heap_[hole] = heap_[parent];
        hole = parent;
    }
    heap_[hole] = key;
    ++live_;
    return EventId{seq, slot};
}

bool
EventQueue::cancel(EventId id)
{
    // Ids of events that already ran, were already cancelled, or
    // whose slot has since been reused no longer match the slot's
    // seq and are rejected. The heap key stays behind and is
    // discarded when it surfaces.
    if (!id.valid() || id.slot >= slots_.size())
        return false;
    Slot &s = slots_[id.slot];
    if (s.seq != id.seq)
        return false;
    s.seq = 0;
    s.cb = Callback{};
    MGSEC_ASSERT(live_ > 0, "live counter out of sync");
    --live_;
    return true;
}

void
EventQueue::popTop()
{
    const Key last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0)
        return;
    // Sift down from the root: pull the least child up into the hole
    // until the old last key fits.
    std::size_t hole = 0;
    while (true) {
        const std::size_t first = hole * 4 + 1;
        if (first >= n)
            break;
        const std::size_t end = first + 4 < n ? first + 4 : n;
        std::size_t least = first;
        for (std::size_t c = first + 1; c < end; ++c)
            if (before(heap_[c], heap_[least]))
                least = c;
        if (!before(heap_[least], last))
            break;
        heap_[hole] = heap_[least];
        hole = least;
    }
    heap_[hole] = last;
}

void
EventQueue::dropTop()
{
    free_.push_back(heap_.front().slot);
    popTop();
}

void
EventQueue::runTop()
{
    const Key k = heap_.front();
    popTop();
    Slot &s = slots_[k.slot];
    // Move the callback out and free the slot before running: the
    // callback may schedule, reusing the slot or growing the slab.
    Callback cb = std::move(s.cb);
    s.seq = 0;
    free_.push_back(k.slot);
    MGSEC_ASSERT(k.when >= now_, "event queue time went backwards");
    now_ = k.when;
    --live_;
    ++executed_;
    cb();
}

bool
EventQueue::runOne()
{
    while (!heap_.empty()) {
        if (!live(heap_.front())) {
            dropTop(); // lazily-cancelled leftover
            continue;
        }
        runTop();
        return true;
    }
    return false;
}

Tick
EventQueue::nextPendingTick()
{
    while (!heap_.empty()) {
        if (live(heap_.front()))
            return heap_.front().when;
        dropTop(); // lazily-cancelled leftover
    }
    return MaxTick;
}

std::uint64_t
EventQueue::run(Tick until, std::uint64_t max_events)
{
    std::uint64_t n = 0;
    while (n < max_events && !heap_.empty()) {
        if (!live(heap_.front())) {
            dropTop();
            continue;
        }
        // A live event past the bound stays queued.
        if (heap_.front().when > until)
            break;
        runTop();
        ++n;
    }
    return n;
}

} // namespace mgsec
