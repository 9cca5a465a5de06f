#include "mem/tlb.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace mgsec
{

Tlb::Tlb(const std::string &name, EventQueue &eq, TlbParams params)
    : SimObject(name, eq), params_(params)
{
    MGSEC_ASSERT(params_.entries > 0 && params_.entries < kNil / 4,
                 "TLB needs between 1 and 2^30 entries");
    regStat(hits_);
    regStat(misses_);
    regStat(evictions_);
}

std::size_t
Tlb::find(std::uint64_t page) const
{
    const std::size_t mask = index_.size() - 1;
    std::size_t i = home(page);
    while (index_[i] != 0 && nodes_[index_[i] - 1].page != page)
        i = (i + 1) & mask;
    return i;
}

void
Tlb::eraseAt(std::size_t hole)
{
    const std::size_t mask = index_.size() - 1;
    std::size_t j = hole;
    while (true) {
        j = (j + 1) & mask;
        if (index_[j] == 0)
            break;
        const std::size_t ideal = home(nodes_[index_[j] - 1].page);
        // Entries whose home lies cyclically in (hole, j] are already
        // as close to home as they can get.
        const bool home_between = hole <= j
                                      ? (hole < ideal && ideal <= j)
                                      : (hole < ideal || ideal <= j);
        if (home_between)
            continue;
        index_[hole] = index_[j];
        hole = j;
    }
    index_[hole] = 0;
}

void
Tlb::growIndex()
{
    const std::size_t slots = index_.empty() ? 8 : index_.size() * 2;
    index_.assign(slots, 0);
    index_shift_ = 64 - std::countr_zero(slots);
    for (std::uint32_t n = head_; n != kNil; n = nodes_[n].next)
        index_[find(nodes_[n].page)] = n + 1;
}

void
Tlb::unlink(std::uint32_t n)
{
    const Node &node = nodes_[n];
    if (node.prev != kNil)
        nodes_[node.prev].next = node.next;
    else
        head_ = node.next;
    if (node.next != kNil)
        nodes_[node.next].prev = node.prev;
    else
        tail_ = node.prev;
}

void
Tlb::linkFront(std::uint32_t n)
{
    nodes_[n].prev = kNil;
    nodes_[n].next = head_;
    if (head_ != kNil)
        nodes_[head_].prev = n;
    else
        tail_ = n;
    head_ = n;
}

bool
Tlb::lookup(std::uint64_t page)
{
    if (size_ != 0) {
        const std::uint32_t hit = index_[find(page)];
        if (hit != 0) {
            const std::uint32_t n = hit - 1;
            if (n != head_) {
                unlink(n);
                linkFront(n);
            }
            ++hits_;
            return true;
        }
    }
    ++misses_;

    std::uint32_t n;
    if (size_ >= params_.entries) {
        // Recycle the LRU node for the new mapping.
        n = tail_;
        eraseAt(find(nodes_[n].page));
        unlink(n);
        ++evictions_;
    } else {
        if (free_ != kNil) {
            n = free_;
            free_ = nodes_[n].next;
        } else {
            if (nodes_.size() == nodes_.capacity()) {
                nodes_.reserve(std::min<std::size_t>(
                    params_.entries,
                    std::max<std::size_t>(4, nodes_.size() * 2)));
            }
            n = static_cast<std::uint32_t>(nodes_.size());
            nodes_.push_back(Node{});
        }
        ++size_;
        if (std::size_t{size_} * 2 > index_.size())
            growIndex();
    }
    nodes_[n].page = page;
    index_[find(page)] = n + 1;
    linkFront(n);
    return false;
}

bool
Tlb::resident(std::uint64_t page) const
{
    return size_ != 0 && index_[find(page)] != 0;
}

bool
Tlb::invalidate(std::uint64_t page)
{
    if (size_ == 0)
        return false;
    const std::size_t pos = find(page);
    if (index_[pos] == 0)
        return false;
    const std::uint32_t n = index_[pos] - 1;
    eraseAt(pos);
    unlink(n);
    nodes_[n].next = free_;
    free_ = n;
    --size_;
    return true;
}

void
Tlb::flush()
{
    nodes_.clear();
    std::fill(index_.begin(), index_.end(), 0);
    head_ = tail_ = free_ = kNil;
    size_ = 0;
}

} // namespace mgsec
