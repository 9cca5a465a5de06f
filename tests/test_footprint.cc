/**
 * @file
 * Construction footprint gate: the heap bytes one 64-GPU hier
 * Dynamic+batching MultiGpuSystem allocates while it is built.
 *
 * Every GPU owns 65 Table III caches and per-(sender, receiver) OTP
 * state toward all 64 peers, so construction is where a fat line
 * layout or an eagerly allocated per-peer queue shows first. The
 * count comes from a replaced global operator new and is
 * deterministic for a given standard library.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "core/experiment.hh"
#include "core/system.hh"
#include "workload/profile.hh"

using namespace mgsec;

namespace
{

std::atomic<std::uint64_t> g_new_bytes{0};

} // anonymous namespace

// The replacements pair malloc with free on purpose; GCC cannot see
// that both sides are replaced and warns about the mix.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *
operator new(std::size_t n)
{
    g_new_bytes.fetch_add(n, std::memory_order_relaxed);
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

TEST(Footprint, HierSystemConstructionBytes)
{
    ExperimentConfig cfg;
    cfg.numGpus = 64;
    cfg.scheme = OtpScheme::Dynamic;
    cfg.batching = true;
    cfg.topology.kind = TopologyKind::Hier;
    cfg.scale = 0.001;
    cfg.simThreads = 1;
    const WorkloadProfile profile =
        makeProfile("mm", workloadScale(cfg), cfg.numGpus);
    const SystemConfig sys_cfg = makeSystemConfig(cfg);

    const std::uint64_t before = g_new_bytes.load();
    std::uint64_t bytes = 0;
    {
        MultiGpuSystem sys(sys_cfg, profile);
        bytes = g_new_bytes.load() - before;
    }
    // With libstdc++: 24-byte stamped cache lines and one std::deque
    // per per-peer queue allocated 109,699,792 B (104.6 MiB) here;
    // 8-byte recency-ordered lines and per-peer rings that allocate
    // on first use allocate 46,823,664 B (44.7 MiB). The bound sits
    // just above the latter, well under half the former.
    constexpr std::uint64_t kBoundBytes = std::uint64_t{45} << 20;
    EXPECT_LE(bytes, kBoundBytes) << "constructor allocated " << bytes
                                  << " bytes";
    RecordProperty("ctor_bytes", std::to_string(bytes));
}
