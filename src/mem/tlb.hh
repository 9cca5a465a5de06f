/**
 * @file
 * TLB model (fully associative, LRU).
 *
 * Per Table III / Fig. 2 of the paper: each CU has a private L1 TLB,
 * all CUs of a GPU share an L2 TLB, and L2 misses are forwarded to
 * the IOMMU on the CPU side — which in the secure system is a
 * CPU-GPU message like any other and therefore crosses the secure
 * channel.
 *
 * The LRU order is exact. Storage is flat: a node array doubly
 * linked by index and an open-addressing page -> node table, both
 * grown with occupancy. Once a TLB is warm, lookups, fills,
 * evictions and invalidations touch no allocator.
 */

#ifndef MGSEC_MEM_TLB_HH
#define MGSEC_MEM_TLB_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/sim_object.hh"
#include "sim/types.hh"

namespace mgsec
{

struct TlbParams
{
    std::uint32_t entries = 64;
    Cycles hitLatency = 1;
};

class Tlb : public SimObject
{
  public:
    Tlb(const std::string &name, EventQueue &eq, TlbParams params);

    /**
     * Translate @p page (a virtual page number).
     * @retval true the mapping was resident.
     * On a miss the mapping is filled (LRU eviction).
     */
    bool lookup(std::uint64_t page);

    /** Probe without side effects. */
    bool resident(std::uint64_t page) const;

    /** Drop one mapping (migration shootdown). */
    bool invalidate(std::uint64_t page);

    /** Drop everything. */
    void flush();

    const TlbParams &params() const { return params_; }
    std::uint32_t occupancy() const { return size_; }

    std::uint64_t hits() const
    {
        return static_cast<std::uint64_t>(hits_.value());
    }
    std::uint64_t misses() const
    {
        return static_cast<std::uint64_t>(misses_.value());
    }
    std::uint64_t evictions() const
    {
        return static_cast<std::uint64_t>(evictions_.value());
    }

  private:
    static constexpr std::uint32_t kNil = UINT32_MAX;

    /** One mapping, linked into the LRU list by node index. */
    struct Node
    {
        std::uint64_t page;
        std::uint32_t prev; ///< towards MRU
        std::uint32_t next; ///< towards LRU; free-list link when unused
    };

    /** Home position of @p page in index_. */
    std::size_t home(std::uint64_t page) const
    {
        return static_cast<std::size_t>(
            (page * 0x9E3779B97F4A7C15ULL) >> index_shift_);
    }
    /** Position of @p page in index_, or the empty slot ending its probe. */
    std::size_t find(std::uint64_t page) const;
    /** Clear index_[pos] by backward shift, keeping probes tombstone-free. */
    void eraseAt(std::size_t pos);
    /** Double index_ (from empty: 8 slots) and reinsert every node. */
    void growIndex();
    void unlink(std::uint32_t n);
    void linkFront(std::uint32_t n);

    TlbParams params_;

    /**
     * Mappings. Grows with occupancy up to params_.entries and never
     * shrinks, so a TLB that only ever sees a few pages stays small
     * and a warm one never allocates.
     */
    std::vector<Node> nodes_;
    /**
     * Open-addressing page -> node table (linear probing, load <= 1/2):
     * node index + 1, 0 = empty. Power-of-two size.
     */
    std::vector<std::uint32_t> index_;
    unsigned index_shift_ = 64;
    std::uint32_t head_ = kNil; ///< MRU
    std::uint32_t tail_ = kNil; ///< LRU
    std::uint32_t free_ = kNil; ///< invalidated nodes, linked by next
    std::uint32_t size_ = 0;

    stats::Scalar hits_{"hits", "TLB hits"};
    stats::Scalar misses_{"misses", "TLB misses"};
    stats::Scalar evictions_{"evictions", "TLB evictions"};
};

} // namespace mgsec

#endif // MGSEC_MEM_TLB_HH
