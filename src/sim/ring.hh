/**
 * @file
 * Growable ring buffer: a FIFO of plain records that can also drop
 * from the back.
 *
 * The per-peer queues of the secure layer (staged pad ticks, replay
 * counters, chaff slot claims) number 4 x N per node, and most peers
 * of a large system never send to each other. An empty Ring owns no
 * heap storage, and a full ring cycled with pop_front() + push_back()
 * reuses the freed slot in place, so a steady-state queue never
 * touches the allocator. Unlike std::deque, which allocates a node
 * and its map even when empty, a Ring costs 32 bytes until first use.
 */

#ifndef MGSEC_SIM_RING_HH
#define MGSEC_SIM_RING_HH

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace mgsec
{

template <typename T>
class Ring
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "Ring is restricted to plain record types");

  public:
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::size_t capacity() const { return buf_.size(); }

    /** Element @p i counted from the front. */
    T &operator[](std::size_t i) { return buf_[slot(i)]; }
    const T &operator[](std::size_t i) const { return buf_[slot(i)]; }

    T &front() { return buf_[head_]; }
    const T &front() const { return buf_[head_]; }

    void
    push_back(const T &v)
    {
        if (size_ == buf_.size())
            regrow(size_ == 0 ? kMinCapacity : 2 * std::size_t{size_});
        buf_[slot(size_)] = v;
        ++size_;
    }

    void
    pop_front()
    {
        if (++head_ == buf_.size())
            head_ = 0;
        --size_;
    }

    void pop_back() { --size_; }

    /** Overwrite every element with @p v. */
    void
    fill(const T &v)
    {
        for (std::size_t i = 0; i < size_; ++i)
            (*this)[i] = v;
    }

    /** Drop every element; the storage is kept for reuse. */
    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

    /** Make room for @p n elements without a later regrowth. */
    void
    reserve(std::size_t n)
    {
        if (n > buf_.size())
            regrow(n);
    }

  private:
    static constexpr std::size_t kMinCapacity = 4;

    std::size_t
    slot(std::size_t i) const
    {
        const std::size_t s = head_ + i;
        return s < buf_.size() ? s : s - buf_.size();
    }

    /** Move to @p cap slots with the front at index 0. */
    void
    regrow(std::size_t cap)
    {
        std::vector<T> next(cap);
        for (std::size_t i = 0; i < size_; ++i)
            next[i] = buf_[slot(i)];
        buf_ = std::move(next);
        head_ = 0;
    }

    std::vector<T> buf_;
    std::uint32_t head_ = 0;
    std::uint32_t size_ = 0;
};

} // namespace mgsec

#endif // MGSEC_SIM_RING_HH
