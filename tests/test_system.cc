/**
 * @file
 * Whole-system integration tests: runs complete, invariants hold,
 * and the qualitative security relationships from the paper emerge.
 * These use scaled-down workloads to stay fast.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "core/system.hh"

using namespace mgsec;

namespace
{

ExperimentConfig
quick(OtpScheme scheme, bool batching = false,
      std::uint32_t gpus = 4)
{
    ExperimentConfig e;
    e.numGpus = gpus;
    e.scheme = scheme;
    e.batching = batching;
    e.scale = 0.08;
    return e;
}

} // anonymous namespace

TEST(System, UnsecureRunCompletes)
{
    const RunResult r = runWorkload("mm", quick(OtpScheme::Unsecure));
    EXPECT_TRUE(r.completed);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.remoteOps, 0u);
    EXPECT_GT(r.totalBytes, 0u);
}

TEST(System, EverySchemeCompletes)
{
    for (OtpScheme s : {OtpScheme::Unsecure, OtpScheme::Private,
                        OtpScheme::Shared, OtpScheme::Cached,
                        OtpScheme::Dynamic}) {
        const RunResult r = runWorkload("atax", quick(s));
        EXPECT_TRUE(r.completed) << otpSchemeName(s);
    }
}

TEST(System, RunsAreDeterministic)
{
    const RunResult a = runWorkload("mm", quick(OtpScheme::Private));
    const RunResult b = runWorkload("mm", quick(OtpScheme::Private));
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.totalBytes, b.totalBytes);
    EXPECT_EQ(a.otp.counts, b.otp.counts);
}

TEST(System, SeedChangesTheRun)
{
    ExperimentConfig e = quick(OtpScheme::Private);
    const RunResult a = runWorkload("mm", e);
    e.seed = 99;
    const RunResult b = runWorkload("mm", e);
    EXPECT_NE(a.cycles, b.cycles);
}

TEST(System, SecureCommunicationAddsTraffic)
{
    const RunResult base =
        runWorkload("mm", quick(OtpScheme::Unsecure));
    const RunResult sec =
        runWorkload("mm", quick(OtpScheme::Private));
    const double ratio = normalizedTraffic(sec, base);
    // Fig. 12: around +37 % interconnect traffic.
    EXPECT_GT(ratio, 1.2);
    EXPECT_LT(ratio, 1.6);
    EXPECT_GT(sec.classBytes[2], 0u); // SecMeta
    EXPECT_GT(sec.classBytes[3], 0u); // SecAck
}

TEST(System, BatchingReducesTraffic)
{
    const RunResult plain =
        runWorkload("mm", quick(OtpScheme::Dynamic, false));
    const RunResult batched =
        runWorkload("mm", quick(OtpScheme::Dynamic, true));
    EXPECT_LT(batched.totalBytes, plain.totalBytes);
}

TEST(System, SharedIsTheSlowestScheme)
{
    const RunResult base =
        runWorkload("spmv", quick(OtpScheme::Unsecure));
    const RunResult priv =
        runWorkload("spmv", quick(OtpScheme::Private));
    const RunResult shared =
        runWorkload("spmv", quick(OtpScheme::Shared));
    EXPECT_GT(normalizedTime(shared, base),
              normalizedTime(priv, base));
}

TEST(System, SecureRunsAreNotFasterThanUnsecure)
{
    const RunResult base =
        runWorkload("pr", quick(OtpScheme::Unsecure));
    for (OtpScheme s : {OtpScheme::Private, OtpScheme::Shared,
                        OtpScheme::Cached, OtpScheme::Dynamic}) {
        const RunResult r = runWorkload("pr", quick(s));
        // Allow a small tolerance: pacing effects can shave noise.
        EXPECT_GT(normalizedTime(r, base), 0.97)
            << otpSchemeName(s);
    }
}

TEST(System, MoreOtpBuffersNeverMuchSlower)
{
    ExperimentConfig e = quick(OtpScheme::Private);
    e.otpMult = 1;
    const RunResult small = runWorkload("spmv", e);
    e.otpMult = 16;
    const RunResult big = runWorkload("spmv", e);
    EXPECT_LT(big.cycles, small.cycles);
}

TEST(System, OtpAccountingCoversAllMessages)
{
    const RunResult r = runWorkload("mm", quick(OtpScheme::Private));
    // Every secured data message claims one send pad and one recv
    // pad somewhere in the system.
    EXPECT_EQ(r.otp.total(Direction::Send),
              r.otp.total(Direction::Recv));
    EXPECT_GT(r.otp.total(Direction::Send), r.remoteOps);
}

TEST(System, MigrationsConvertRemoteToLocal)
{
    // aes is migration-heavy: most of its pages move to the GPU and
    // later accesses are local.
    const RunResult r = runWorkload("aes", quick(OtpScheme::Unsecure));
    EXPECT_GT(r.migrations, 0u);
    EXPECT_GT(r.localOps, 0u);
}

TEST(System, MigrationCanBeDisabledViaConfig)
{
    ExperimentConfig e = quick(OtpScheme::Unsecure);
    SystemConfig sc = makeSystemConfig(e);
    sc.pageTable.migrationEnabled = false;
    MultiGpuSystem sys(sc, makeProfile("aes", e.scale));
    const RunResult r = sys.run();
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.migrations, 0u);
}

TEST(System, BurstinessSamplesCollected)
{
    const RunResult r = runWorkload("mt", quick(OtpScheme::Unsecure));
    EXPECT_FALSE(r.burst16.empty());
    // 32-block windows accumulate more slowly than 16-block ones.
    double m16 = 0, m32 = 0;
    for (Cycles c : r.burst16)
        m16 += static_cast<double>(c);
    for (Cycles c : r.burst32)
        m32 += static_cast<double>(c);
    if (!r.burst32.empty()) {
        m16 /= static_cast<double>(r.burst16.size());
        m32 /= static_cast<double>(r.burst32.size());
        EXPECT_GT(m32, m16);
    }
}

TEST(System, CommSeriesSampledWhenEnabled)
{
    ExperimentConfig e = quick(OtpScheme::Unsecure);
    e.commSampleInterval = 2000;
    const RunResult r = runWorkload("mm", e);
    EXPECT_GT(r.commSeries.size(), 2u);
    std::uint64_t sends = 0;
    for (const auto &s : r.commSeries)
        sends += s.sends;
    EXPECT_GT(sends, 0u);
}

TEST(System, EightGpuSystemRuns)
{
    const RunResult r =
        runWorkload("mm", quick(OtpScheme::Dynamic, true, 8));
    EXPECT_TRUE(r.completed);
}

TEST(System, SixteenGpuSystemRuns)
{
    const RunResult r =
        runWorkload("bicg", quick(OtpScheme::Cached, false, 16));
    EXPECT_TRUE(r.completed);
}

TEST(System, AesLatencySensitivityIsMild)
{
    // Fig. 26: going from 40 to 10 cycles helps only a little,
    // because the metadata bandwidth cost remains.
    ExperimentConfig e = quick(OtpScheme::Private);
    const RunResult base = runWorkload("mt", quick(OtpScheme::Unsecure));
    e.aesLatency = 40;
    const double t40 =
        normalizedTime(runWorkload("mt", e), base);
    e.aesLatency = 10;
    const double t10 =
        normalizedTime(runWorkload("mt", e), base);
    EXPECT_LE(t10, t40);
    EXPECT_GT(t10, 1.0);
}

TEST(Experiment, TotalOtpEntriesMatchesTableI)
{
    SecurityConfig cfg;
    cfg.otpMultiplier = 4;
    EXPECT_EQ(cfg.totalOtpEntries(5), 32u);   // 4 GPUs
    EXPECT_EQ(cfg.totalOtpEntries(9), 64u);   // 8 GPUs
    EXPECT_EQ(cfg.totalOtpEntries(17), 128u); // 16 GPUs
    cfg.totalOtpOverride = 77;
    EXPECT_EQ(cfg.totalOtpEntries(5), 77u);
}

TEST(Experiment, MakeSystemConfigWiresSecurity)
{
    ExperimentConfig e;
    e.scheme = OtpScheme::Dynamic;
    e.batching = true;
    e.aesLatency = 10;
    e.otpMult = 8;
    e.countMetadataBytes = false;
    const SystemConfig sc = makeSystemConfig(e);
    EXPECT_EQ(sc.security.scheme, OtpScheme::Dynamic);
    EXPECT_TRUE(sc.security.batching);
    EXPECT_EQ(sc.security.aesLatency, 10u);
    EXPECT_EQ(sc.security.otpMultiplier, 8u);
    EXPECT_FALSE(sc.security.countMetadataBytes);
}

TEST(Experiment, GeomeanAndMean)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(mean({1.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(ConfigKey, ExistingKeysAreByteIdentical)
{
    // Keys name observability files and key the baseline cache, so a
    // formatting change must not move a single byte of them.
    EXPECT_EQ(configKey("mm", ExperimentConfig{}),
              "mm|gpus=4|scheme=Private|batch=0/16|otp=4x|aes=40|meta=1|"
              "scale=1|seed=1|comm=0|dyn=1000/0.9/0.5/4096/384|"
              "memprot=-1|strong=1|padstall=0");

    ExperimentConfig e;
    e.numGpus = 16;
    e.scheme = OtpScheme::Dynamic;
    e.batching = true;
    e.aesLatency = 80;
    e.commSampleInterval = 5000;
    e.dynParams.interval = 2000;
    e.scale = 0.25;
    e.seed = 7;
    EXPECT_EQ(configKey("pr", e),
              "pr|gpus=16|scheme=Dynamic|batch=1/16|otp=4x|aes=80|meta=1|"
              "scale=0.25|seed=7|comm=5000|dyn=2000/0.9/0.5/4096/384|"
              "memprot=-1|strong=1|padstall=0");
}

TEST(ConfigKey, CycleFieldsFormatPast32Bits)
{
    ExperimentConfig e;
    e.aesLatency = (Cycles{1} << 33) + 5;
    e.commSampleInterval = Cycles{1} << 32;
    e.dynParams.interval = (Cycles{1} << 40) + 1;
    const std::string key = configKey("mm", e);
    EXPECT_NE(key.find("|aes=8589934597|"), std::string::npos) << key;
    EXPECT_NE(key.find("|comm=4294967296|"), std::string::npos) << key;
    EXPECT_NE(key.find("|dyn=1099511627777/"), std::string::npos)
        << key;
}
