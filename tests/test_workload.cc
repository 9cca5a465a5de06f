/**
 * @file
 * Workload profile and trace-source tests.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>

#include "workload/profile.hh"
#include "workload/source.hh"
#include "workload/trace_io.hh"

using namespace mgsec;

TEST(Profiles, AllSeventeenPaperWorkloadsExist)
{
    EXPECT_EQ(workloadNames().size(), 17u);
    for (const auto &n : workloadNames()) {
        const WorkloadProfile p = makeProfile(n);
        EXPECT_EQ(p.name, n);
        EXPECT_FALSE(p.phases.empty()) << n;
        EXPECT_GT(p.opsPerGpu, 0u) << n;
    }
}

TEST(Profiles, RpkiClassesMatchTableIV)
{
    EXPECT_EQ(workloadNames(RpkiClass::High).size(), 5u);
    EXPECT_EQ(workloadNames(RpkiClass::Medium).size(), 9u);
    EXPECT_EQ(workloadNames(RpkiClass::Low).size(), 3u);
    EXPECT_EQ(makeProfile("mt").rpki, RpkiClass::High);
    EXPECT_EQ(makeProfile("mm").rpki, RpkiClass::Medium);
    EXPECT_EQ(makeProfile("fir").rpki, RpkiClass::Low);
}

TEST(Profiles, PhaseFractionsSumToOne)
{
    for (const auto &n : workloadNames()) {
        const WorkloadProfile p = makeProfile(n);
        double total = 0.0;
        for (const auto &ph : p.phases)
            total += ph.fraction;
        EXPECT_NEAR(total, 1.0, 1e-9) << n;
    }
}

TEST(Profiles, ScaleAdjustsOps)
{
    const auto full = makeProfile("mm", 1.0);
    const auto half = makeProfile("mm", 0.5);
    EXPECT_NEAR(static_cast<double>(half.opsPerGpu),
                static_cast<double>(full.opsPerGpu) / 2.0, 1.0);
}

TEST(Profiles, MoreGpusMeansDenserCommunication)
{
    const auto p4 = makeProfile("mm", 1.0, 4);
    const auto p16 = makeProfile("mm", 1.0, 16);
    for (std::size_t i = 0; i < p4.phases.size(); ++i)
        EXPECT_LT(p16.phases[i].interGap, p4.phases[i].interGap);
}

TEST(ProfilesDeath, UnknownWorkloadIsFatal)
{
    EXPECT_DEATH(makeProfile("nosuch"), "unknown workload");
}

TEST(TraceFileSourceDeath, HugeHeaderCountIsAnOrdinaryBadTrace)
{
    // The header's op count is untrusted: an absurd one allocates
    // nothing and fails like any other truncated trace.
    EXPECT_EXIT(
        {
            std::istringstream is("mgsec-trace v1 999999999999999999\n"
                                  "1 2 0 64 0\n");
            TraceFileSource src(is);
        },
        ::testing::ExitedWithCode(1), "truncated");
}

TEST(DestWeights, NormalizedAndSelfFree)
{
    for (const auto &n : workloadNames()) {
        const WorkloadProfile p = makeProfile(n);
        for (const auto &ph : p.phases) {
            const auto w = destWeights(ph, 1, 5);
            double total = 0.0;
            for (double v : w)
                total += v;
            EXPECT_NEAR(total, 1.0, 1e-9) << n;
            EXPECT_DOUBLE_EQ(w[1], 0.0) << n;
        }
    }
}

TEST(DestWeights, CpuShareRespected)
{
    PhaseSpec ph;
    ph.pattern = CommPattern::CpuHeavy;
    ph.cpuShare = 0.7;
    const auto w = destWeights(ph, 2, 5);
    EXPECT_NEAR(w[0], 0.7, 1e-9);
}

TEST(DestWeights, HotSpotConcentrates)
{
    PhaseSpec ph;
    ph.pattern = CommPattern::HotSpot;
    ph.hotOffset = 0;
    ph.cpuShare = 0.1;
    const auto w = destWeights(ph, 1, 5);
    // GPU 2 is the hot peer for GPU 1 at offset 0.
    EXPECT_GT(w[2], w[3]);
    EXPECT_GT(w[2], w[4]);
    EXPECT_NEAR(w[2], 0.9 * 0.75, 1e-9);
}

TEST(DestWeights, HotSpotNeverSelectsSelf)
{
    PhaseSpec ph;
    ph.pattern = CommPattern::HotSpot;
    ph.cpuShare = 0.0;
    for (std::uint32_t off = 0; off < 8; ++off) {
        ph.hotOffset = off;
        for (NodeId self = 1; self <= 4; ++self) {
            const auto w = destWeights(ph, self, 5);
            EXPECT_DOUBLE_EQ(w[self], 0.0);
        }
    }
}

TEST(DestWeights, PartnerPairsUp)
{
    PhaseSpec ph;
    ph.pattern = CommPattern::Partner;
    ph.cpuShare = 0.0;
    const auto w1 = destWeights(ph, 1, 5);
    const auto w2 = destWeights(ph, 2, 5);
    // GPUs 1 and 2 are buddies (0 <-> 1 in GPU indices).
    EXPECT_GT(w1[2], 0.8);
    EXPECT_GT(w2[1], 0.8);
}

TEST(DestWeights, SingleGpuTalksOnlyToCpu)
{
    PhaseSpec ph;
    ph.pattern = CommPattern::Uniform;
    ph.cpuShare = 0.1;
    const auto w = destWeights(ph, 1, 2);
    EXPECT_DOUBLE_EQ(w[0], 1.0);
}

TEST(TraceSource, GeneratesExactlyTotalOps)
{
    const WorkloadProfile p = makeProfile("mm", 0.1);
    TraceSource src(p, 1, 5, 42);
    RemoteOp op;
    std::uint64_t n = 0;
    while (src.next(op))
        ++n;
    EXPECT_EQ(n, p.opsPerGpu);
    EXPECT_FALSE(src.next(op));
}

TEST(TraceSource, DeterministicForSameSeed)
{
    const WorkloadProfile p = makeProfile("spmv", 0.05);
    TraceSource a(p, 1, 5, 7), b(p, 1, 5, 7);
    RemoteOp oa, ob;
    while (a.next(oa)) {
        ASSERT_TRUE(b.next(ob));
        EXPECT_EQ(oa.addr, ob.addr);
        EXPECT_EQ(oa.dst, ob.dst);
        EXPECT_EQ(oa.gap, ob.gap);
        EXPECT_EQ(oa.write, ob.write);
    }
}

TEST(TraceSource, DifferentGpusDifferentStreams)
{
    const WorkloadProfile p = makeProfile("spmv", 0.05);
    TraceSource a(p, 1, 5, 7), b(p, 2, 5, 7);
    RemoteOp oa, ob;
    int diff = 0;
    for (int i = 0; i < 100 && a.next(oa) && b.next(ob); ++i)
        if (oa.addr != ob.addr)
            ++diff;
    EXPECT_GT(diff, 0);
}

TEST(TraceSource, NeverTargetsSelf)
{
    const WorkloadProfile p = makeProfile("pr", 0.1);
    TraceSource src(p, 2, 5, 3);
    RemoteOp op;
    while (src.next(op))
        ASSERT_NE(op.dst, 2u);
}

TEST(TraceSource, AddressesLandInDestinationRegion)
{
    const WorkloadProfile p = makeProfile("mt", 0.05);
    TraceSource src(p, 1, 5, 3);
    RemoteOp op;
    while (src.next(op))
        ASSERT_EQ(regionOwner(op.addr), op.dst);
}

TEST(TraceSource, BurstsShareDestination)
{
    // Ops separated by intra-burst gaps target the same peer.
    const WorkloadProfile p = makeProfile("mt", 0.05);
    TraceSource src(p, 1, 5, 3);
    RemoteOp prev, cur;
    ASSERT_TRUE(src.next(prev));
    const Cycles intra = p.phases[0].intraGap;
    while (src.next(cur)) {
        if (cur.gap == intra) {
            EXPECT_EQ(cur.dst, prev.dst);
        }
        prev = cur;
    }
}

TEST(TraceSource, MigratableShareRoughlyMatchesProfile)
{
    const WorkloadProfile p = makeProfile("st", 0.5); // 60 % migratable
    TraceSource src(p, 1, 5, 11);
    RemoteOp op;
    std::uint64_t mig = 0, total = 0;
    while (src.next(op)) {
        ++total;
        mig += op.migratable ? 1 : 0;
    }
    const double frac =
        static_cast<double>(mig) / static_cast<double>(total);
    EXPECT_NEAR(frac, 0.60, 0.15);
}

TEST(TraceSource, DestinationMixTracksWeights)
{
    const WorkloadProfile p = makeProfile("relu", 0.5); // CPU heavy
    TraceSource src(p, 1, 5, 11);
    RemoteOp op;
    std::map<NodeId, std::uint64_t> count;
    std::uint64_t total = 0;
    while (src.next(op)) {
        ++count[op.dst];
        ++total;
    }
    // Over half the traffic goes to the host.
    EXPECT_GT(static_cast<double>(count[0]) /
                  static_cast<double>(total),
              0.4);
}

TEST(TraceSource, WriteFractionRoughlyMatches)
{
    const WorkloadProfile p = makeProfile("fir", 4.0); // writeFrac 0.3
    TraceSource src(p, 1, 5, 5);
    RemoteOp op;
    std::uint64_t w = 0, total = 0;
    while (src.next(op)) {
        ++total;
        w += op.write ? 1 : 0;
    }
    EXPECT_NEAR(static_cast<double>(w) / static_cast<double>(total),
                0.3, 0.1);
}

/** Every workload generates a valid stream for every GPU. */
class EveryWorkload : public ::testing::TestWithParam<std::string>
{};

TEST_P(EveryWorkload, StreamIsWellFormed)
{
    const WorkloadProfile p = makeProfile(GetParam(), 0.05);
    for (NodeId gpu = 1; gpu <= 4; ++gpu) {
        TraceSource src(p, gpu, 5, 1);
        RemoteOp op;
        std::uint64_t n = 0;
        while (src.next(op)) {
            ASSERT_LT(op.dst, 5u);
            ASSERT_NE(op.dst, gpu);
            ASSERT_GE(op.gap, 1u);
            ++n;
        }
        EXPECT_EQ(n, p.opsPerGpu);
    }
}

INSTANTIATE_TEST_SUITE_P(All, EveryWorkload,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &info) { return info.param; });
