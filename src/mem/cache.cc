#include "mem/cache.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace mgsec
{

namespace
{

bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // anonymous namespace

Cache::Cache(const std::string &name, EventQueue &eq, CacheParams params)
    : SimObject(name, eq), params_(params)
{
    MGSEC_ASSERT(params_.blockSize > 0 && isPow2(params_.blockSize),
                 "block size must be a power of two");
    MGSEC_ASSERT(params_.assoc > 0, "associativity must be positive");
    const Bytes blocks = params_.size / params_.blockSize;
    MGSEC_ASSERT(blocks % params_.assoc == 0,
                 "size %llu not divisible into %u-way sets",
                 static_cast<unsigned long long>(params_.size),
                 params_.assoc);
    num_sets_ = static_cast<std::uint32_t>(blocks / params_.assoc);
    MGSEC_ASSERT(isPow2(num_sets_), "set count must be a power of two");
    block_shift_ = std::countr_zero(params_.blockSize);
    tag_shift_ = block_shift_ + std::countr_zero(num_sets_);
    granule_shift_ = std::countr_zero(std::max(kPageBytes, params_.blockSize));
    // The tag shares its word with the valid and dirty bits.
    MGSEC_ASSERT(tag_shift_ >= 2,
                 "geometry too small: tags would reach the dirty bit");
    lines_.resize(blocks);

    regStat(hits_);
    regStat(misses_);
    regStat(evictions_);
    regStat(writebacks_);
}

Cache::AccessResult
Cache::access(std::uint64_t addr, bool write)
{
    AccessResult res;
    const std::uint32_t set = setIndex(addr);
    const std::uint64_t want = kValid | tagOf(addr);
    std::uint64_t *base =
        &lines_[static_cast<std::size_t>(set) * params_.assoc];
    const std::uint64_t dirty = write ? kDirty : 0;

    std::uint32_t w = 0;
    for (; w < params_.assoc; ++w) {
        const std::uint64_t word = base[w];
        if ((word & kValid) == 0)
            break; // valid lines are packed: the tag is absent
        if ((word & ~kDirty) == want) {
            std::copy_backward(base, base + w, base + w + 1);
            base[0] = word | dirty;
            ++hits_;
            res.hit = true;
            return res;
        }
    }

    ++misses_;
    if (w == params_.assoc) {
        // Full set: the last word is the least recently used line.
        w = params_.assoc - 1;
        const std::uint64_t victim = base[w];
        ++evictions_;
        res.evicted = true;
        res.victimAddr = blockAddr(victim & kTagMask, set);
        res.victimDirty = (victim & kDirty) != 0;
        if (res.victimDirty)
            ++writebacks_;
        filterRemove(res.victimAddr);
    }
    filterAdd(addr);
    std::copy_backward(base, base + w, base + w + 1);
    base[0] = want | dirty;
    return res;
}

bool
Cache::contains(std::uint64_t addr) const
{
    const std::uint32_t set = setIndex(addr);
    const std::uint64_t want = kValid | tagOf(addr);
    const std::uint64_t *base =
        &lines_[static_cast<std::size_t>(set) * params_.assoc];
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        if ((base[w] & kValid) == 0)
            break;
        if ((base[w] & ~kDirty) == want)
            return true;
    }
    return false;
}

bool
Cache::invalidate(std::uint64_t addr)
{
    const std::uint32_t set = setIndex(addr);
    const std::uint64_t want = kValid | tagOf(addr);
    std::uint64_t *base =
        &lines_[static_cast<std::size_t>(set) * params_.assoc];
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        if ((base[w] & kValid) == 0)
            break;
        if ((base[w] & ~kDirty) == want) {
            // Close the gap so the valid words stay packed in order.
            std::copy(base + w + 1, base + params_.assoc, base + w);
            base[params_.assoc - 1] = 0;
            filterRemove(addr);
            return true;
        }
    }
    return false;
}

std::uint32_t
Cache::invalidateRange(std::uint64_t base, Bytes len)
{
    std::uint32_t count = 0;
    const std::uint64_t end = base + len;
    std::uint64_t a = base;
    while (a < end) {
        if (page_filter_[bucketOf(a)] == 0) {
            // No resident block of this granule: step past it.
            const std::uint64_t granule_end = std::min(
                end, ((a >> granule_shift_) + 1) << granule_shift_);
            const std::uint64_t steps =
                (granule_end - a + params_.blockSize - 1) >> block_shift_;
            a += steps << block_shift_;
            continue;
        }
        if (invalidate(a))
            ++count;
        a += params_.blockSize;
    }
    return count;
}

} // namespace mgsec
