#include "probes.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "crypto/gcm.hh"
#include "crypto/otp.hh"
#include "mem/cache.hh"
#include "mem/tlb.hh"
#include "net/topology.hh"
#include "secure/pad_table.hh"
#include "secure/security_config.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

using namespace mgsec;

namespace perfbench
{

namespace
{

/** Keeps probe results observable so no timed call is elided. */
volatile std::uint64_t g_sink = 0;

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Deterministic input stream for the probes (splitmix64). */
struct Mix
{
    std::uint64_t s;
    std::uint64_t
    next()
    {
        std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
    std::uint64_t below(std::uint64_t n) { return next() % n; }
};

constexpr int kBatches = 7;

/**
 * Median over kBatches of ns per op; @p batch runs one batch and
 * returns the host ns it wants counted (so a probe can keep untimed
 * housekeeping out of the figure).
 */
template <class Batch>
double
medianNsPerOp(std::uint64_t ops, Batch &&batch)
{
    std::array<double, kBatches> v{};
    for (double &x : v)
        x = static_cast<double>(batch()) / static_cast<double>(ops);
    std::sort(v.begin(), v.end());
    return v[kBatches / 2];
}

/**
 * Addresses shaped like TraceSource bursts: a random working-set
 * page per burst, consecutive 64 B blocks inside it.
 */
std::vector<std::uint64_t>
burstAddresses(const ProbeShape &s, std::size_t n)
{
    Mix m{s.seed};
    const std::uint64_t pages =
        static_cast<std::uint64_t>(s.pagesPerPeer) * (s.numNodes - 1) * 2;
    std::vector<std::uint64_t> out;
    out.reserve(n);
    while (out.size() < n) {
        const std::uint64_t page = m.below(pages);
        std::uint64_t blk = m.below(kBlocksPerPage);
        const std::uint64_t len = 1 + m.below(16);
        for (std::uint64_t i = 0; i < len && out.size() < n; ++i) {
            out.push_back(page * kPageBytes + blk * kBlockBytes);
            blk = (blk + 1) % kBlocksPerPage;
        }
    }
    return out;
}

struct EqProbe
{
    EventQueue eq;
    Mix mix{1};
    std::uint64_t fired = 0;

    void
    arm()
    {
        eq.scheduleIn(1 + mix.below(256), [this]() {
            ++fired;
            arm();
        });
    }
};

/** One schedule + runOne at a constant pending depth. */
double
probeEventq(const ProbeShape &s)
{
    EqProbe p;
    p.mix.s = s.seed;
    p.eq.reserve(s.eventqDepth * 2);
    for (std::uint32_t i = 0; i < s.eventqDepth; ++i)
        p.arm();
    constexpr std::uint64_t kOps = 200000;
    const double ns = medianNsPerOp(kOps, [&p]() {
        const std::uint64_t t0 = nowNs();
        for (std::uint64_t i = 0; i < kOps; ++i)
            p.eq.runOne();
        return nowNs() - t0;
    });
    g_sink = g_sink + p.fired;
    return ns;
}

double
probeCacheAccess(const ProbeShape &s, const CacheParams &geom)
{
    EventQueue eq;
    Cache c("probe.cache", eq, geom);
    const auto addrs = burstAddresses(s, 1 << 16);
    std::uint64_t i = 0;
    return medianNsPerOp(addrs.size(), [&]() {
        std::uint64_t hits = 0;
        const std::uint64_t t0 = nowNs();
        for (const std::uint64_t a : addrs)
            hits += c.access(a, (++i & 7) == 0).hit;
        const std::uint64_t dt = nowNs() - t0;
        g_sink = g_sink + hits;
        return dt;
    });
}

/** Page-sized invalidations (migration shootdowns) on a warm cache. */
double
probeCacheInvalidate(const ProbeShape &s, const CacheParams &geom)
{
    EventQueue eq;
    Cache c("probe.cache", eq, geom);
    const auto addrs = burstAddresses(s, 1 << 16);
    constexpr std::uint64_t kOps = 2048;
    return medianNsPerOp(kOps, [&]() {
        for (const std::uint64_t a : addrs)
            c.access(a, false);
        std::uint64_t dropped = 0;
        const std::uint64_t t0 = nowNs();
        for (std::uint64_t i = 0; i < kOps; ++i) {
            const std::uint64_t base = addrs[i * 31 % addrs.size()] &
                                       ~(kPageBytes - 1);
            dropped += c.invalidateRange(base, kPageBytes);
        }
        const std::uint64_t dt = nowNs() - t0;
        g_sink = g_sink + dropped;
        return dt;
    });
}

double
probeTlb(const ProbeShape &s)
{
    EventQueue eq;
    Tlb t("probe.tlb", eq, TlbParams{1024, 8});
    auto addrs = burstAddresses(s, 1 << 16);
    for (auto &a : addrs)
        a /= kPageBytes;
    return medianNsPerOp(addrs.size(), [&]() {
        std::uint64_t hits = 0;
        const std::uint64_t t0 = nowNs();
        for (const std::uint64_t p : addrs)
            hits += t.lookup(p);
        const std::uint64_t dt = nowNs() - t0;
        g_sink = g_sink + hits;
        return dt;
    });
}

/** acquireSend on node 1, simulated time advancing between chunks. */
double
probeAcquireSend(const ProbeShape &s, OtpScheme scheme)
{
    EventQueue eq;
    SecurityConfig sc;
    auto table = makePadTable(scheme, "probe.pads", eq, 1, s.numNodes,
                              sc.totalOtpEntries(s.numNodes),
                              sc.aesLatency);
    Mix m{s.seed};
    std::vector<NodeId> dsts(4096);
    for (auto &d : dsts) {
        d = static_cast<NodeId>(m.below(s.numNodes - 1));
        if (d >= 1)
            ++d; // skip self (node 1)
    }
    constexpr std::uint64_t kChunk = 64;
    return medianNsPerOp(dsts.size(), [&]() {
        std::uint64_t ns = 0, ctr = 0;
        for (std::size_t i = 0; i < dsts.size(); i += kChunk) {
            const std::uint64_t t0 = nowNs();
            for (std::size_t j = i; j < i + kChunk; ++j)
                ctr += table->acquireSend(dsts[j]).ctr;
            ns += nowNs() - t0;
            const Tick until = eq.now() + 200;
            eq.schedule(until, []() {});
            eq.run(until);
        }
        g_sink = g_sink + ctr;
        return ns;
    });
}

double
probeRoute(const ProbeShape &s, TopologyKind kind, std::uint32_t gpus)
{
    TopologyConfig tc;
    tc.kind = kind;
    const std::uint32_t nodes = gpus + 1;
    // Link parameters of SystemConfig's defaults (Table III).
    auto topo = makeTopology(tc, nodes, LinkParams{12.0, 500},
                             LinkParams{18.0, 100});
    Mix m{s.seed};
    std::vector<std::pair<NodeId, NodeId>> pairs(8192);
    for (auto &p : pairs) {
        p.first = static_cast<NodeId>(m.below(nodes));
        p.second = static_cast<NodeId>(m.below(nodes - 1));
        if (p.second >= p.first)
            ++p.second;
    }
    Tick tick = 0;
    return medianNsPerOp(pairs.size(), [&]() {
        Tick last = 0;
        const std::uint64_t t0 = nowNs();
        for (const auto &p : pairs) {
            tick += 3;
            last += topo->route(p.first, p.second, 80, tick);
        }
        const std::uint64_t dt = nowNs() - t0;
        g_sink = g_sink + last;
        return dt;
    });
}

std::array<std::uint8_t, 16>
probeKey(std::uint64_t seed)
{
    std::array<std::uint8_t, 16> k{};
    Mix m{seed};
    for (auto &b : k)
        b = static_cast<std::uint8_t>(m.next());
    return k;
}

void
probeGcm(const ProbeShape &s, std::map<std::string, double> &out)
{
    const crypto::AesGcm gcm(probeKey(s.seed));
    std::vector<std::uint8_t> pt(64), back;
    Mix m{s.seed};
    for (auto &b : pt)
        b = static_cast<std::uint8_t>(m.next());
    crypto::Iv96 iv{};
    constexpr std::uint64_t kOps = 4096;
    std::vector<crypto::GcmSealed> sealed(kOps);
    out["crypto.seal64_ns"] = medianNsPerOp(kOps, [&]() {
        const std::uint64_t t0 = nowNs();
        for (std::uint64_t i = 0; i < kOps; ++i) {
            iv[0] = static_cast<std::uint8_t>(i);
            iv[1] = static_cast<std::uint8_t>(i >> 8);
            sealed[i] = gcm.seal(iv, pt);
        }
        return nowNs() - t0;
    });
    out["crypto.open64_ns"] = medianNsPerOp(kOps, [&]() {
        std::uint64_t ok = 0;
        const std::uint64_t t0 = nowNs();
        for (std::uint64_t i = 0; i < kOps; ++i) {
            iv[0] = static_cast<std::uint8_t>(i);
            iv[1] = static_cast<std::uint8_t>(i >> 8);
            ok += gcm.open(iv, sealed[i].ciphertext, sealed[i].tag,
                           back);
        }
        const std::uint64_t dt = nowNs() - t0;
        g_sink = g_sink + ok;
        return dt;
    });
}

double
probePadDerive(const ProbeShape &s)
{
    const crypto::PadFactory f(probeKey(s.seed + 1));
    constexpr std::uint64_t kOps = 8192;
    std::uint64_t ctr = 0;
    return medianNsPerOp(kOps, [&]() {
        std::uint64_t acc = 0;
        const std::uint64_t t0 = nowNs();
        for (std::uint64_t i = 0; i < kOps; ++i) {
            const auto pad = f.derive(
                1, static_cast<NodeId>(2 + i % (s.numNodes - 2)), ++ctr);
            acc += pad.encPad[0];
        }
        const std::uint64_t dt = nowNs() - t0;
        g_sink = g_sink + acc;
        return dt;
    });
}

} // namespace

std::map<std::string, double>
runProbes(const ProbeShape &s)
{
    // Table III geometry: 16 KiB 4-way L1 per CU, 2 MiB 16-way L2.
    const CacheParams l1{16 * 1024, 4, kBlockBytes, 1};
    const CacheParams l2{2 * 1024 * 1024, 16, kBlockBytes, 20};
    std::map<std::string, double> out;
    out["sim.eventq_ns_per_op"] = probeEventq(s);
    out["mem.cache_access_ns"] = probeCacheAccess(s, l2);
    out["mem.l1_access_ns"] = probeCacheAccess(s, l1);
    out["mem.cache_invalidate_page_ns"] = probeCacheInvalidate(s, l2);
    out["mem.tlb_lookup_ns"] = probeTlb(s);
    out["secure.acquire_send_ns.private"] =
        probeAcquireSend(s, OtpScheme::Private);
    out["secure.acquire_send_ns.dynamic"] =
        probeAcquireSend(s, OtpScheme::Dynamic);
    out["net.route_ns.p2p"] = probeRoute(s, TopologyKind::P2p, 4);
    out["net.route_ns.nvswitch"] =
        probeRoute(s, TopologyKind::NvSwitch, 16);
    out["net.route_ns.hier"] = probeRoute(s, TopologyKind::Hier, 64);
    probeGcm(s, out);
    out["crypto.pad_derive_ns"] = probePadDerive(s);
    return out;
}

} // namespace perfbench
