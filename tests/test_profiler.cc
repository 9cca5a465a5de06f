/**
 * @file
 * Host self-profiler tests: span accounting must balance across
 * threads, the profiler must never perturb simulated results
 * (byte-identical stats with it off, on, and across kernel thread
 * counts), the sweep's PROGRESS.jsonl heartbeat must be parseable
 * with queued lines in submission order, and --compare's default
 * ignore list must swallow every profiler/wall-clock key.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/compare.hh"
#include "core/experiment.hh"
#include "core/json_in.hh"
#include "core/sweep.hh"
#include "core/system.hh"
#include "sim/profiler.hh"

using namespace mgsec;

namespace
{

ExperimentConfig
quick()
{
    ExperimentConfig e;
    e.scheme = OtpScheme::Dynamic;
    e.batching = true;
    e.scale = 0.08;
    return e;
}

/** Stats dump of one run, profiler optionally enabled. */
std::string
statsOf(ExperimentConfig cfg, bool profiled)
{
    const WorkloadProfile profile =
        makeProfile("mm", cfg.scale, cfg.numGpus);
    MultiGpuSystem sys(makeSystemConfig(cfg), profile);
    if (profiled)
        sys.enableProfiler();
    sys.run();
    std::ostringstream os;
    sys.dumpStatsJson(os);
    return os.str();
}

} // anonymous namespace

TEST(Profiler, SpansBalanceAcrossThreads)
{
    Profiler prof(2, 4);
    prof.start();

    // Each worker hammers its own lane; domain d lands on lane
    // d % workers, the same pinning the kernel uses.
    std::vector<std::thread> workers;
    const int kSpans = 1000;
    for (unsigned w = 0; w < 2; ++w) {
        workers.emplace_back([&prof, w]() {
            for (int i = 0; i < kSpans; ++i) {
                ProfSpan outer(&prof, static_cast<DomainId>(w),
                               kProfDomainExec);
                ProfSpan inner(&prof, static_cast<DomainId>(w + 2),
                               kProfCryptoSeal);
            }
        });
    }
    for (std::thread &t : workers)
        t.join();
    prof.finish();

    EXPECT_EQ(prof.activeSpans(), 0);
    EXPECT_EQ(prof.totalSpans(),
              static_cast<std::uint64_t>(2 * 2 * kSpans));
    EXPECT_EQ(prof.phaseHist(kProfDomainExec).count(),
              static_cast<std::uint64_t>(2 * kSpans));
    EXPECT_EQ(prof.phaseHist(kProfCryptoSeal).count(),
              static_cast<std::uint64_t>(2 * kSpans));
    EXPECT_EQ(prof.phaseHist(kProfBarrierWait).count(), 0u);
}

TEST(Profiler, NullSpanIsFree)
{
    // The disabled hook: must not crash, must not record anywhere.
    for (int i = 0; i < 10; ++i)
        ProfSpan span(nullptr, 3, kProfCryptoOpen);
}

TEST(Profiler, WriteJsonSchema)
{
    Profiler prof(1, 1);
    prof.start();
    {
        ProfSpan span(&prof, 0, kProfSerialExec);
    }
    std::ostringstream os;
    prof.writeJson(os);

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(jsonParse(os.str(), doc, err)) << err;
    EXPECT_EQ(doc.find("schema")->string, "mgsec-prof-1");
    const JsonValue *phases = doc.find("phases");
    ASSERT_NE(phases, nullptr);
    for (unsigned p = 0; p < kProfNumPhases; ++p)
        EXPECT_NE(phases->find(profPhaseName(p)), nullptr)
            << profPhaseName(p);
    ASSERT_NE(doc.find("pdes"), nullptr);
    EXPECT_EQ(doc.find("pdes")->find("windows")->asNumber(), 0.0);
}

TEST(Profiler, OffIsByteIdenticalToOn)
{
    const ExperimentConfig cfg = quick();
    const std::string off = statsOf(cfg, false);
    const std::string on = statsOf(cfg, true);
    ASSERT_FALSE(off.empty());
    // Wall-clock data lives only in the PROF document; the stats
    // dump may not change by a single byte.
    EXPECT_EQ(off, on);
}

TEST(Profiler, ProfiledRunsThreadCountInvariant)
{
    // Profiled stats are independent of the worker count, and the
    // profiler is transparent at every count.
    ExperimentConfig cfg = quick();
    cfg.numGpus = 4;
    cfg.simThreads = 1;
    const std::string t1 = statsOf(cfg, true);
    cfg.simThreads = 2;
    const std::string t2 = statsOf(cfg, true);
    EXPECT_EQ(t2, statsOf(cfg, false));
    cfg.simThreads = 4;
    const std::string t4 = statsOf(cfg, true);
    EXPECT_EQ(t1, t2);
    EXPECT_EQ(t2, t4);
}

TEST(Profiler, OneWorkerTimesBatchesOfWindows)
{
    // A lone worker has no barrier to wait on: it times whole
    // batches of windows as serialExec spans instead of clocking
    // every domain in every window.
    ExperimentConfig cfg = quick();
    cfg.numGpus = 4;
    cfg.simThreads = 1;
    const WorkloadProfile profile =
        makeProfile("mm", cfg.scale, cfg.numGpus);
    MultiGpuSystem sys(makeSystemConfig(cfg), profile);
    sys.enableProfiler();
    const RunResult r = sys.run();

    const Profiler *prof = sys.profiler();
    ASSERT_NE(prof, nullptr);
    EXPECT_EQ(prof->activeSpans(), 0);
    EXPECT_EQ(prof->profiledWindows(), r.pdesWindows);
    EXPECT_EQ(prof->laneEvents(0), sys.executedEvents());
    EXPECT_GT(prof->phaseHist(kProfSerialExec).count(), 0u);
    EXPECT_LT(prof->phaseHist(kProfSerialExec).count(),
              r.pdesWindows);
    EXPECT_EQ(prof->phaseHist(kProfDomainExec).count(), 0u);
    EXPECT_EQ(prof->phaseHist(kProfBarrierWait).count(), 0u);
}

TEST(Profiler, ParallelRunRecordsWindows)
{
    ExperimentConfig cfg = quick();
    cfg.numGpus = 4;
    cfg.simThreads = 2;
    const WorkloadProfile profile =
        makeProfile("mm", cfg.scale, cfg.numGpus);
    MultiGpuSystem sys(makeSystemConfig(cfg), profile);
    sys.enableProfiler();
    sys.run();

    const Profiler *prof = sys.profiler();
    ASSERT_NE(prof, nullptr);
    EXPECT_EQ(prof->activeSpans(), 0);
    EXPECT_GT(prof->profiledWindows(), 0u);
    EXPECT_GT(prof->phaseHist(kProfDomainExec).count(), 0u);
    EXPECT_GT(prof->phaseHist(kProfBarrierWait).count(), 0u);
    EXPECT_GT(prof->parallelEfficiencyPct(), 0.0);
}

TEST(Profiler, SweepProgressAndProfArtifacts)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "mgsec_test_progress";
    fs::remove_all(dir);

    Sweep sweep(0.05, 1, 2);
    sweep.setObservability(dir.string());
    ExperimentConfig a;
    a.scheme = OtpScheme::Private;
    ExperimentConfig b;
    b.scheme = OtpScheme::Dynamic;
    b.batching = true;
    sweep.addRaw("mm", a);
    sweep.addRaw("mm", b);
    sweep.addNormalized("fft", b);
    sweep.run();

    // PROGRESS.jsonl: every line parses; queued lines carry strictly
    // increasing submission sequence numbers regardless of --jobs;
    // each queued job eventually starts and finishes; the last
    // finished line reports done == total.
    std::ifstream is(dir / "PROGRESS.jsonl");
    ASSERT_TRUE(static_cast<bool>(is));
    std::string line, err;
    std::uint64_t next_seq = 0;
    std::set<std::string> queued, started, finished;
    double last_done = 0, last_total = 0;
    while (std::getline(is, line)) {
        JsonValue ev;
        ASSERT_TRUE(jsonParse(line, ev, err)) << line << ": " << err;
        const std::string kind = ev.find("event")->string;
        const std::string tag =
            ev.find("hash")->string + "/" +
            std::to_string(static_cast<std::uint64_t>(
                ev.find("seq")->asNumber()));
        if (kind == "queued") {
            EXPECT_EQ(ev.find("seq")->asNumber(),
                      static_cast<double>(next_seq++));
            queued.insert(tag);
        } else if (kind == "started") {
            started.insert(tag);
        } else {
            ASSERT_EQ(kind, "finished");
            finished.insert(tag);
            ASSERT_NE(ev.find("wallSec"), nullptr);
            ASSERT_NE(ev.find("etaSec"), nullptr);
            last_done = ev.find("done")->asNumber();
            last_total = ev.find("total")->asNumber();
        }
    }
    EXPECT_GT(queued.size(), 0u);
    EXPECT_EQ(queued, started);
    EXPECT_EQ(queued, finished);
    EXPECT_EQ(last_done, last_total);

    // Every indexed run has a parseable PROF document with the full
    // phase group, and the incremental index left no tmp file.
    JsonValue idx;
    ASSERT_TRUE(jsonParseFile((dir / "OBSERVE_INDEX.json").string(),
                              idx, err))
        << err;
    const JsonValue *runs = idx.find("runs");
    ASSERT_NE(runs, nullptr);
    EXPECT_GT(runs->items.size(), 0u);
    for (const JsonValue &r : runs->items) {
        const std::string hash = r.find("hash")->string;
        JsonValue prof;
        ASSERT_TRUE(jsonParseFile(
            (dir / ("PROF_" + hash + ".json")).string(), prof, err))
            << err;
        EXPECT_EQ(prof.find("schema")->string, "mgsec-prof-1");
        ASSERT_NE(prof.find("phases"), nullptr);
        EXPECT_GT(prof.find("spans")->asNumber(), 0.0);
    }
    EXPECT_FALSE(fs::exists(dir / "OBSERVE_INDEX.json.tmp"));
    fs::remove_all(dir);
}

TEST(Profiler, CompareIgnoresProfilerKeys)
{
    // Two documents identical in simulated results but with every
    // profiler/wall-clock key moved: the default ignore list must
    // keep the gate green; stripping it must trip the gate.
    const std::string old_text = R"({
        "packets": 100,
        "wallSec": 1.0,
        "prof": {"wallNs": 500, "busyNs": 400, "etaSec": 2.0},
        "phases": {"barrierWait": {"sum": 10}},
        "pdes": {"parallelEfficiencyPct": 80.0}
    })";
    const std::string new_text = R"({
        "packets": 100,
        "wallSec": 9.0,
        "prof": {"wallNs": 900, "busyNs": 100, "etaSec": 7.0},
        "phases": {"barrierWait": {"sum": 99}},
        "pdes": {"parallelEfficiencyPct": 20.0}
    })";
    JsonValue oldDoc, newDoc;
    std::string err;
    ASSERT_TRUE(jsonParse(old_text, oldDoc, err)) << err;
    ASSERT_TRUE(jsonParse(new_text, newDoc, err)) << err;

    CompareStats cs;
    compareDocs(oldDoc, newDoc, "", 10.0, defaultCompareIgnores(),
                cs);
    EXPECT_TRUE(cs.flagged.empty());
    EXPECT_GT(cs.checked, 0u);

    CompareStats loose;
    compareDocs(oldDoc, newDoc, "", 10.0, {}, loose);
    EXPECT_FALSE(loose.flagged.empty());
}
