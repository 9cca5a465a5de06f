/**
 * @file
 * Tests for the window (conservative-PDES) kernel every simulation
 * runs on: raw barrier-window mechanics (lookahead horizons,
 * same-window chains, crossing accounting), exact equality of
 * one-worker and multi-worker results — cycles, bytes, packets, OTP
 * outcomes, ACKs, bursts and the communication series — across
 * schemes x batching x workloads, run-to-run determinism and
 * thread-count invariance, attribution conservation on multi-worker
 * runs, and serial-vs-sharded verdict equality on the verify
 * testbed (which keeps its own serial event loop).
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "core/experiment.hh"
#include "core/system.hh"
#include "sim/domain.hh"
#include "sim/latency_attr.hh"
#include "sim/parallel_kernel.hh"
#include "verify/fuzz.hh"
#include "workload/profile.hh"

using namespace mgsec;

namespace
{

/** A captured cross-domain message for the raw-kernel tests. */
struct Mail
{
    Tick sendTick = 0;
    DomainId dst = 0;
    int payload = 0;
};

/**
 * Minimal two-domain rig: domains post Mail into a shared outbox
 * (only ever touched inside windows by the posting domain and at
 * barriers by the coordinator — the same single-writer discipline the
 * Network's capture lanes use) and the exchange hook replays each
 * mail into its destination queue at sendTick + lookahead.
 */
struct Rig
{
    explicit Rig(std::size_t ndomains)
    {
        domains.push_back(std::make_unique<Domain>(0, host));
        for (DomainId d = 1; d < ndomains; ++d)
            domains.push_back(std::make_unique<Domain>(d));
    }

    ParallelKernelConfig
    kernelConfig(unsigned threads, Tick lookahead)
    {
        ParallelKernelConfig k;
        for (auto &d : domains)
            k.domains.push_back(d.get());
        k.threads = threads;
        k.lookahead = lookahead;
        k.exchange = [this, lookahead]() {
            std::uint64_t n = 0;
            for (const Mail &m : outbox) {
                delivered.push_back(m);
                domains[m.dst]->eq().schedule(
                    m.sendTick + lookahead, [] {});
                ++n;
            }
            outbox.clear();
            return n;
        };
        return k;
    }

    EventQueue host;
    std::vector<std::unique_ptr<Domain>> domains;
    std::vector<Mail> outbox;
    std::vector<Mail> delivered;
};

} // anonymous namespace

TEST(ParallelKernelRaw, DeliveryAtExactLookaheadHorizon)
{
    // A message sent at the very first tick of a window arrives at
    // sendTick + L — exactly the first tick of the *next* window, the
    // tightest landing the conservative contract allows. It must be
    // schedulable (not "into the past") and must execute.
    constexpr Tick kLookahead = 10;
    Rig rig(2);
    std::vector<Tick> arrivals;
    rig.domains[1]->eq().schedule(
        0, [&] { rig.outbox.push_back(Mail{0, 0, 1}); });
    // Observe domain 0 executing the replayed event.
    ParallelKernelConfig k = rig.kernelConfig(2, kLookahead);
    auto exchange = k.exchange;
    k.exchange = [&, exchange]() {
        const std::uint64_t n = exchange();
        return n;
    };
    ParallelKernel kernel(std::move(k));
    kernel.run(0);
    ASSERT_EQ(rig.delivered.size(), 1u);
    EXPECT_EQ(rig.delivered[0].sendTick, 0u);
    EXPECT_EQ(rig.domains[0]->eq().now(), kLookahead);
    EXPECT_EQ(kernel.domainCrossings(), 1u);
}

TEST(ParallelKernelRaw, WindowEdgeEventsSplitAtTheBarrier)
{
    // Events at ticks L-1 and L sit on opposite sides of the first
    // barrier: with one worker thread the interleaving of event
    // bodies and barrier hooks is observable and must put exactly one
    // barrier between them.
    constexpr Tick kLookahead = 10;
    Rig rig(2);
    std::vector<std::string> log;
    rig.domains[1]->eq().schedule(kLookahead - 1,
                                  [&] { log.push_back("edge"); });
    rig.domains[1]->eq().schedule(kLookahead,
                                  [&] { log.push_back("next"); });
    ParallelKernelConfig k = rig.kernelConfig(1, kLookahead);
    k.atBarrier = [&](Tick) { log.push_back("barrier"); };
    ParallelKernel kernel(std::move(k));
    kernel.run(0);
    ASSERT_GE(log.size(), 3u);
    EXPECT_EQ(log[0], "edge");
    EXPECT_EQ(log[1], "barrier");
    EXPECT_EQ(log[2], "next");
}

TEST(ParallelKernelRaw, SameTickChainRunsInsideOneWindow)
{
    // Zero-latency same-domain work (an event scheduling more work at
    // its own tick) completes within the window — sharding must not
    // defer intra-domain causality to a barrier.
    constexpr Tick kLookahead = 100;
    Rig rig(2);
    int steps = 0;
    rig.domains[0]->eq().schedule(5, [&] {
        ++steps;
        rig.domains[0]->eq().schedule(5, [&] { ++steps; });
    });
    ParallelKernel kernel(rig.kernelConfig(2, kLookahead));
    kernel.run(0);
    EXPECT_EQ(steps, 2);
    EXPECT_EQ(kernel.windows(), 1u);
}

TEST(ParallelKernelRaw, ResumesAcrossKernelLegs)
{
    // The testbed runs one kernel per leg, resuming at the returned
    // window start; a second leg must see events scheduled after the
    // first leg's horizon.
    constexpr Tick kLookahead = 10;
    Rig rig(2);
    int ran = 0;
    rig.domains[1]->eq().schedule(7, [&] { ++ran; });
    ParallelKernel first(rig.kernelConfig(2, kLookahead));
    const Tick next = first.run(0);
    EXPECT_EQ(ran, 1);
    EXPECT_GT(next, 7u);

    rig.domains[1]->eq().schedule(next + 3, [&] { ++ran; });
    ParallelKernel second(rig.kernelConfig(2, kLookahead));
    second.run(next);
    EXPECT_EQ(ran, 2);
}

namespace
{

ExperimentConfig
quickConfig(OtpScheme scheme, bool batching,
            std::uint32_t threads)
{
    ExperimentConfig e;
    e.numGpus = 4;
    e.scheme = scheme;
    e.batching = batching;
    e.scale = 0.05;
    e.simThreads = threads;
    // Exercise the barrier-driven comm sampler on every comparison.
    e.commSampleInterval = 2000;
    return e;
}

/**
 * The one-worker vs multi-worker contract: the worker count changes
 * nothing but wall time, so every simulated result is exactly equal.
 */
void
expectEquivalent(const RunResult &serial, const RunResult &parallel)
{
    ASSERT_TRUE(serial.completed);
    ASSERT_TRUE(parallel.completed);
    EXPECT_EQ(serial.remoteOps, parallel.remoteOps);
    EXPECT_EQ(serial.localOps, parallel.localOps);
    EXPECT_EQ(serial.migrations, parallel.migrations);
    EXPECT_EQ(serial.cycles, parallel.cycles);
    EXPECT_EQ(serial.totalBytes, parallel.totalBytes);
    EXPECT_EQ(serial.classBytes, parallel.classBytes);
    EXPECT_EQ(serial.packets, parallel.packets);
    EXPECT_EQ(serial.otp.counts, parallel.otp.counts);
    EXPECT_EQ(serial.standaloneAcks, parallel.standaloneAcks);
    EXPECT_EQ(serial.burst16, parallel.burst16);
    EXPECT_EQ(serial.burst32, parallel.burst32);
    ASSERT_EQ(serial.commSeries.size(), parallel.commSeries.size());
    for (std::size_t i = 0; i < serial.commSeries.size(); ++i) {
        const CommSample &a = serial.commSeries[i];
        const CommSample &b = parallel.commSeries[i];
        EXPECT_EQ(a.tick, b.tick) << "sample " << i;
        EXPECT_EQ(a.sendsTo, b.sendsTo) << "sample " << i;
        EXPECT_EQ(a.sends, b.sends) << "sample " << i;
        EXPECT_EQ(a.recvs, b.recvs) << "sample " << i;
    }
    EXPECT_EQ(serial.pdesWindows, parallel.pdesWindows);
    EXPECT_EQ(serial.domainCrossings, parallel.domainCrossings);
}

} // anonymous namespace

class SerialParallelEquality
    : public ::testing::TestWithParam<std::tuple<OtpScheme, bool>>
{};

TEST_P(SerialParallelEquality, ShardedRunMatchesSerial)
{
    const auto [scheme, batching] = GetParam();
    const RunResult serial =
        runWorkload("mm", quickConfig(scheme, batching, 1));
    const RunResult parallel =
        runWorkload("mm", quickConfig(scheme, batching, 2));
    expectEquivalent(serial, parallel);
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndBatching, SerialParallelEquality,
    ::testing::Combine(::testing::Values(OtpScheme::Unsecure,
                                         OtpScheme::Private,
                                         OtpScheme::Shared,
                                         OtpScheme::Cached,
                                         OtpScheme::Dynamic),
                       ::testing::Bool()));

TEST(ParallelKernel, EquivalentAcrossWorkloads)
{
    for (const char *wl : {"mm", "atax", "spmv"}) {
        const RunResult serial =
            runWorkload(wl, quickConfig(OtpScheme::Dynamic, true, 1));
        const RunResult parallel =
            runWorkload(wl, quickConfig(OtpScheme::Dynamic, true, 2));
        SCOPED_TRACE(wl);
        expectEquivalent(serial, parallel);
    }
}

TEST(ParallelKernel, ParallelRunsAreDeterministic)
{
    const ExperimentConfig cfg =
        quickConfig(OtpScheme::Dynamic, true, 2);
    const RunResult a = runWorkload("mm", cfg);
    const RunResult b = runWorkload("mm", cfg);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.totalBytes, b.totalBytes);
    EXPECT_EQ(a.packets, b.packets);
    EXPECT_EQ(a.remoteOps, b.remoteOps);
    EXPECT_EQ(a.otp.counts, b.otp.counts);
    EXPECT_EQ(a.pdesWindows, b.pdesWindows);
    EXPECT_EQ(a.domainCrossings, b.domainCrossings);
}

TEST(ParallelKernel, ResultsAreThreadCountInvariant)
{
    // 2 vs 4 worker threads: identical domain partition, identical
    // barrier merge order, so byte-identical results.
    const RunResult two =
        runWorkload("mm", quickConfig(OtpScheme::Private, false, 2));
    const RunResult four =
        runWorkload("mm", quickConfig(OtpScheme::Private, false, 4));
    EXPECT_EQ(two.cycles, four.cycles);
    EXPECT_EQ(two.totalBytes, four.totalBytes);
    EXPECT_EQ(two.packets, four.packets);
    EXPECT_EQ(two.remoteOps, four.remoteOps);
    EXPECT_EQ(two.localOps, four.localOps);
    EXPECT_EQ(two.migrations, four.migrations);
    EXPECT_EQ(two.otp.counts, four.otp.counts);
    EXPECT_EQ(two.pdesWindows, four.pdesWindows);
    EXPECT_EQ(two.domainCrossings, four.domainCrossings);
    EXPECT_EQ(two.windowStalls, four.windowStalls);
}

TEST(ParallelKernel, ShardedAccountingIsReported)
{
    const RunResult parallel =
        runWorkload("mm", quickConfig(OtpScheme::Dynamic, true, 2));
    EXPECT_EQ(parallel.simThreads, 2u);
    EXPECT_GT(parallel.pdesWindows, 0u);
    EXPECT_GT(parallel.domainCrossings, 0u);

    // One worker runs the same windows over the same domains.
    const RunResult serial =
        runWorkload("mm", quickConfig(OtpScheme::Dynamic, true, 1));
    EXPECT_EQ(serial.simThreads, 1u);
    EXPECT_GT(serial.pdesWindows, 0u);
    EXPECT_EQ(serial.pdesWindows, parallel.pdesWindows);
    EXPECT_EQ(serial.domainCrossings, parallel.domainCrossings);
}

TEST(ParallelKernel, AttributionConservesOnShardedRun)
{
    // The telescoping invariant must survive sharding: stage
    // histograms still sum to end-to-end tick for tick even when
    // folds happen concurrently on domain threads.
    ExperimentConfig cfg = quickConfig(OtpScheme::Dynamic, true, 2);
    const WorkloadProfile profile =
        makeProfile("mm", cfg.scale, cfg.numGpus);
    MultiGpuSystem sys(makeSystemConfig(cfg), profile);
    sys.enableAttribution();
    const RunResult r = sys.run();
    ASSERT_TRUE(r.completed);
    ASSERT_GT(r.pdesWindows, 0u);

    const LatencyAttribution *attr = sys.attribution();
    ASSERT_NE(attr, nullptr);
    EXPECT_GT(attr->folds(), 0u);
    std::uint64_t e2e_count = 0;
    for (std::size_t l = 0; l < attr->numLinks(); ++l) {
        const LinkType link = static_cast<LinkType>(l);
        const stats::Histogram &e2e = attr->e2e(link);
        e2e_count += e2e.count();
        std::uint64_t stage_sum = 0;
        for (std::size_t s = 0; s < kNumLifeStages; ++s) {
            const stats::Histogram &st = attr->stage(link, s);
            EXPECT_EQ(st.count(), e2e.count())
                << linkTypeName(link) << "." << lifeStageName(s);
            stage_sum += st.sum();
        }
        EXPECT_EQ(stage_sum, e2e.sum()) << linkTypeName(link);
    }
    EXPECT_EQ(e2e_count, attr->folds());
}

TEST(ParallelKernel, ShardedTestbedVerdictMatchesSerial)
{
    // The verify testbed under attack: every verdict and detection
    // counter must be identical between the serial and sharded
    // kernels — only findings append order and exact delivery ticks
    // may differ.
    using namespace mgsec::verify;
    TestbedConfig cfg;
    cfg.numNodes = 4;
    cfg.scheme = OtpScheme::Private;
    cfg.messages = 60;
    cfg.seed = 11;
    cfg.script.push_back(AttackStep{AttackClass::PayloadFlip, 2, 0});
    cfg.script.push_back(AttackStep{AttackClass::Replay, 1, 0});

    cfg.simThreads = 1;
    const CaseOutcome serial = runCase(cfg);
    cfg.simThreads = 2;
    const CaseOutcome sharded = runCase(cfg);

    EXPECT_EQ(serial.failed, sharded.failed);
    EXPECT_EQ(serial.result.findings.size(),
              sharded.result.findings.size());
    EXPECT_EQ(serial.result.attacksMounted,
              sharded.result.attacksMounted);
    EXPECT_EQ(serial.result.stepsFired, sharded.result.stepsFired);
    EXPECT_EQ(serial.result.delivered, sharded.result.delivered);
    EXPECT_EQ(serial.result.droppedPackets,
              sharded.result.droppedPackets);
    EXPECT_EQ(serial.result.macsFailed, sharded.result.macsFailed);
    EXPECT_EQ(serial.result.macsVerified,
              sharded.result.macsVerified);
    EXPECT_EQ(serial.result.replaySuspects,
              sharded.result.replaySuspects);
    EXPECT_EQ(serial.result.neutralized.size(),
              sharded.result.neutralized.size());
}

TEST(ParallelKernel, ShardedTestbedStillCatchesSeededBugs)
{
    // The oracle must not go blind under sharding: a seeded channel
    // bug has to produce findings on the parallel kernel too.
    using namespace mgsec::verify;
    TestbedConfig cfg;
    cfg.numNodes = 3;
    cfg.scheme = OtpScheme::Private;
    cfg.messages = 48;
    cfg.seed = 5;
    cfg.bug = SeededBug::CounterSkip;
    cfg.simThreads = 2;
    const CaseOutcome oc = runCase(cfg);
    EXPECT_TRUE(oc.failed);
    EXPECT_FALSE(oc.result.findings.empty());
}
