/**
 * @file
 * Set-associative cache tag model with exact LRU replacement.
 *
 * A functional tag array: it answers hit/miss and performs fills and
 * evictions; latency is applied by the callers (the GPU model), which
 * matches how the paper's Table III caches contribute to the remote
 * access path.
 *
 * Each line is one 64-bit word (valid bit, dirty bit, tag), and each
 * set keeps its words in recency order: the valid lines packed at the
 * front, most recently used first. A hit rotates its word to slot 0;
 * a miss fills the first invalid slot, or evicts the last word (the
 * LRU line) when the set is full. Which way an invalid line occupies
 * is never observable, so this is the same replacement as a
 * per-line LRU timestamp, at a third of the storage.
 *
 * Page shootdowns (invalidateRange on every CU's L1 per migration)
 * are filtered: a small counting filter tracks how many resident
 * blocks hash to each page bucket, and a page whose bucket is empty
 * is skipped without probing its blocks.
 */

#ifndef MGSEC_MEM_CACHE_HH
#define MGSEC_MEM_CACHE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/sim_object.hh"
#include "sim/types.hh"

namespace mgsec
{

/** Cache geometry. */
struct CacheParams
{
    Bytes size = 2 * 1024 * 1024;
    std::uint32_t assoc = 16;
    Bytes blockSize = kBlockBytes;
    Cycles hitLatency = 1;
};

class Cache : public SimObject
{
  public:
    Cache(const std::string &name, EventQueue &eq, CacheParams params);

    /** Result of an access. */
    struct AccessResult
    {
        bool hit = false;
        bool evicted = false;       ///< a valid victim was replaced
        std::uint64_t victimAddr = 0; ///< block address of the victim
        bool victimDirty = false;
    };

    /**
     * Access a byte address; on a miss the block is filled (with LRU
     * eviction).
     * @param write marks the block dirty on hit or fill.
     */
    AccessResult access(std::uint64_t addr, bool write);

    /** Probe without side effects. */
    bool contains(std::uint64_t addr) const;

    /** Invalidate one block (e.g., page migrated away). */
    bool invalidate(std::uint64_t addr);

    /** Invalidate every block inside [base, base+len). */
    std::uint32_t invalidateRange(std::uint64_t base, Bytes len);

    const CacheParams &params() const { return params_; }
    std::uint32_t numSets() const { return num_sets_; }

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
    std::uint64_t writebacks() const
    {
        return static_cast<std::uint64_t>(writebacks_.value());
    }

  private:
    /** @name Line word layout: valid, dirty, then the tag. */
    /// @{
    static constexpr std::uint64_t kValid = 1ULL << 63;
    static constexpr std::uint64_t kDirty = 1ULL << 62;
    static constexpr std::uint64_t kTagMask = kDirty - 1;
    /// @}

    std::uint32_t setIndex(std::uint64_t addr) const
    {
        return static_cast<std::uint32_t>((addr >> block_shift_) &
                                          (num_sets_ - 1));
    }
    std::uint64_t tagOf(std::uint64_t addr) const
    {
        return addr >> tag_shift_;
    }
    std::uint64_t blockAddr(std::uint64_t tag, std::uint32_t set) const
    {
        return (tag << tag_shift_) |
               (static_cast<std::uint64_t>(set) << block_shift_);
    }

    /**
     * Filter bucket of the page (or the block, when blocks are larger
     * than pages) holding @p addr.
     */
    std::size_t bucketOf(std::uint64_t addr) const
    {
        return static_cast<std::size_t>(
            ((addr >> granule_shift_) * 0x9E3779B97F4A7C15ULL) >> 56);
    }
    /**
     * Count a block in or out of its bucket. A bucket that reaches
     * 255 sticks there: it then over-counts, which only costs a
     * wasted probe, never a skipped resident block.
     */
    void filterAdd(std::uint64_t addr)
    {
        std::uint8_t &c = page_filter_[bucketOf(addr)];
        if (c != UINT8_MAX)
            ++c;
    }
    void filterRemove(std::uint64_t addr)
    {
        std::uint8_t &c = page_filter_[bucketOf(addr)];
        if (c != UINT8_MAX)
            --c;
    }

    CacheParams params_;
    std::uint32_t num_sets_;
    unsigned block_shift_ = 0;   ///< log2(blockSize)
    unsigned tag_shift_ = 0;     ///< log2(blockSize * num_sets_)
    unsigned granule_shift_ = 0; ///< log2(max(kPageBytes, blockSize))
    /** Line words, set-major; each set is MRU-first (see @file). */
    std::vector<std::uint64_t> lines_;
    /** Resident blocks per page bucket; see bucketOf(). */
    std::array<std::uint8_t, 256> page_filter_{};

    stats::Scalar hits_{"hits", "cache hits"};
    stats::Scalar misses_{"misses", "cache misses"};
    stats::Scalar evictions_{"evictions", "valid lines replaced"};
    stats::Scalar writebacks_{"writebacks", "dirty lines evicted"};
};

} // namespace mgsec

#endif // MGSEC_MEM_CACHE_HH
