/**
 * mgbench — the mgsec benchmark program.
 *
 * One process runs one workload (a batch of simulations or fuzz
 * cases, one client, closed loop: each job starts when the previous
 * one ends) in repeated passes over the same seeded job set until
 * the time budget is spent, checks every output, and prints its
 * metrics by name and unit. The last stdout line is one JSON object:
 *
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 *
 * --trace 0 reports the end-to-end metrics (host time, tracing off).
 * --trace 1 reports the per-layer metrics: it alternates plain passes
 * with passes that turn on the library's host profiler, records the
 * benchmark's own spans around each library call, and runs the layer
 * probes. See README.md beside this file for the metric map.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "calib.hh"
#include "core/experiment.hh"
#include "core/system.hh"
#include "probes.hh"
#include "sim/json_writer.hh"
#include "sim/profiler.hh"
#include "sinks.hh"
#include "verify/fuzz.hh"
#include "verify/testbed.hh"
#include "workload/profile.hh"

using namespace mgsec;
using perfbench::JsonShapeStream;

namespace
{

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ------------------------------------------------------------ arguments

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Shrunken job sets for the benchmark's self-test. */
    bool tiny = false;
    /** Skew every reference count by one (gate self-test). */
    bool corruptRef = false;
    /** Where the traced run writes its spans (empty = nowhere). */
    std::string spansOut;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "mgbench: %s\nusage: mgbench --workload "
                 "paper4|scaleout|observe|fuzz --seed N --seconds S "
                 "--trace 0|1 [--tiny] [--corrupt-ref] "
                 "[--spans-out FILE]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        const auto val = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + k).c_str());
            return argv[++i];
        };
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = val();
        } else if (k == "--seed") {
            const std::string v = val();
            a.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0')
                usage("bad --seed");
        } else if (k == "--seconds") {
            const std::string v = val();
            a.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(a.seconds > 0) ||
                a.seconds > 600)
                usage("bad --seconds");
        } else if (k == "--trace") {
            const std::string v = val();
            if (v != "0" && v != "1")
                usage("bad --trace");
            a.trace = v == "1";
        } else if (k == "--tiny") {
            a.tiny = true;
        } else if (k == "--corrupt-ref") {
            a.corruptRef = true;
        } else if (k == "--spans-out") {
            a.spansOut = val();
        } else {
            usage(("unknown argument " + k).c_str());
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    return a;
}

// ---------------------------------------------------------------- spans

/**
 * The benchmark's own spans around each call it makes into a layer.
 * Kept in memory, written once at the end. A job span parents the
 * call spans of that job.
 */
class SpanLog
{
  public:
    struct Span
    {
        const char *name;
        std::uint64_t id;
        std::uint64_t parent;
        std::uint64_t t0;
        std::uint64_t t1;
    };

    bool on = false;

    void
    add(const char *name, std::uint64_t parent, std::uint64_t t0,
        std::uint64_t t1)
    {
        if (on)
            spans_.push_back(Span{name, ++next_, parent, t0, t1});
    }

    /** Reserve an id for a span whose end is not known yet. */
    std::uint64_t open() { return on ? ++next_ : 0; }

    void
    close(std::uint64_t id, const char *name, std::uint64_t t0,
          std::uint64_t t1)
    {
        if (on)
            spans_.push_back(Span{name, id, 0, t0, t1});
    }

    /** Self time per span name: duration minus covered child time. */
    std::map<std::string, double>
    selfNs() const
    {
        std::map<std::uint64_t, std::uint64_t> child;
        for (const Span &s : spans_)
            if (s.parent)
                child[s.parent] += s.t1 - s.t0;
        std::map<std::string, double> out;
        for (const Span &s : spans_) {
            const std::uint64_t d = s.t1 - s.t0;
            const auto it = child.find(s.id);
            const std::uint64_t c = it == child.end() ? 0 : it->second;
            out[s.name] += static_cast<double>(d - std::min(d, c));
        }
        return out;
    }

    /** Chrome trace_event JSON ("X" events, ids in args). */
    void
    write(const std::string &path) const
    {
        std::ofstream f(path);
        if (!f) {
            std::fprintf(stderr, "mgbench: cannot write spans to %s\n",
                         path.c_str());
            return;
        }
        const std::uint64_t base = spans_.empty() ? 0 : spans_[0].t0;
        f.precision(15);
        JsonWriter w(f);
        w.beginObject();
        w.beginArray("traceEvents");
        for (const Span &s : spans_) {
            w.beginObject();
            w.field("ph", std::string("X"));
            w.field("pid", std::uint64_t{0});
            w.field("tid", std::uint64_t{0});
            w.field("name", std::string(s.name));
            w.field("ts", static_cast<double>(s.t0 - base) / 1e3);
            w.field("dur", static_cast<double>(s.t1 - s.t0) / 1e3);
            w.key("args").beginObject();
            w.field("id", s.id);
            w.field("parent", s.parent);
            w.endObject();
            w.endObject();
        }
        w.endArray();
        w.endObject();
        f << "\n";
    }

  private:
    std::vector<Span> spans_;
    std::uint64_t next_ = 0;
};

// ------------------------------------------------------------ workloads

struct SimJob
{
    std::string workload;
    std::string label;
    ExperimentConfig cfg;
};

struct Plan
{
    std::vector<SimJob> sims;
    std::uint32_t fuzzCases = 0;
    /** Every observability sink on (the observe workload). */
    bool sinks = false;
    perfbench::ProbeShape shape;
    /** Fabric whose route probe prices this workload's packets. */
    std::string fabric = "p2p";
};

/** The paper's 4-GPU scheme matrix (mgsec_sweep's columns). */
struct Scheme
{
    const char *label;
    OtpScheme scheme;
    bool batching;
    std::uint32_t mult;
};

const std::vector<Scheme> kPaperSchemes = {
    {"Unsecure", OtpScheme::Unsecure, false, 4},
    {"Priv4x", OtpScheme::Private, false, 4},
    {"Priv16x", OtpScheme::Private, false, 16},
    {"Shared", OtpScheme::Shared, false, 4},
    {"Cached4x", OtpScheme::Cached, false, 4},
    {"Dyn4x", OtpScheme::Dynamic, false, 4},
    {"Ours4x", OtpScheme::Dynamic, true, 4},
};

/** Run lengths (workload scale factors): a pass takes 1-5 s. */
constexpr double kPaperScale = 0.2;
constexpr double kScaleoutScale = 2.0;
constexpr double kHierScale = 1.0;
constexpr std::uint32_t kFuzzCasesPerPass = 2000;
/**
 * Sharded-kernel workers for scaleout. Three (nproc - 1 on a 4-core
 * box) made pass times swing 3.0-6.2 s on a shared VM; two keep them
 * within about 10 % at the same median speed.
 */
constexpr std::uint32_t kScaleoutThreads = 2;
/** Outstanding remote misses per GPU (SystemConfig::gpu window). */
constexpr std::uint32_t kGpuWindow = 256;

SimJob
simJob(const std::string &wl, const Scheme &s, std::uint32_t gpus,
       double scale, std::uint64_t seed)
{
    SimJob j;
    j.workload = wl;
    j.label = s.label;
    j.cfg.numGpus = gpus;
    j.cfg.scheme = s.scheme;
    j.cfg.batching = s.batching;
    j.cfg.otpMult = s.mult;
    j.cfg.scale = scale;
    j.cfg.seed = seed;
    j.cfg.simThreads = 1;
    return j;
}

Plan
makePlan(const Args &a)
{
    Plan p;
    p.shape.seed = a.seed;
    const Scheme &ours = kPaperSchemes.back();
    if (a.workload == "paper4") {
        std::vector<std::string> names = workloadNames();
        if (a.tiny)
            names.resize(2);
        for (const auto &wl : names)
            for (const auto &s : kPaperSchemes)
                p.sims.push_back(simJob(wl, s, 4,
                                        a.tiny ? 0.05 : kPaperScale,
                                        a.seed));
        p.shape.eventqDepth = 4 * kGpuWindow;
    } else if (a.workload == "scaleout") {
        std::vector<std::string> sw = {"mm", "pr", "spmv",
                                       "mt", "km", "st"};
        std::vector<std::string> hier = {"mm", "pr"};
        if (a.tiny) {
            sw.resize(1);
            hier.resize(1);
        }
        // Two generator seeds per 16-GPU config: eight jobs of
        // uneven cost left the median job flipping between two job
        // types from seed to seed.
        for (std::uint64_t k = 0; k < (a.tiny ? 1 : 2); ++k) {
            for (const auto &wl : sw) {
                SimJob j = simJob(wl, ours, 16,
                                  a.tiny ? 0.2 : kScaleoutScale,
                                  a.seed + k);
                j.cfg.topology.kind = TopologyKind::NvSwitch;
                j.cfg.simThreads = kScaleoutThreads;
                p.sims.push_back(j);
            }
        }
        for (const auto &wl : hier) {
            SimJob j =
                simJob(wl, ours, 64, a.tiny ? 0.2 : kHierScale, a.seed);
            j.cfg.topology.kind = TopologyKind::Hier;
            j.cfg.simThreads = kScaleoutThreads;
            p.sims.push_back(j);
        }
        p.shape.numNodes = 17;
        // One GPU domain's queue: its window plus per-peer timers.
        p.shape.eventqDepth = kGpuWindow + 64;
        p.fabric = "nvswitch";
    } else if (a.workload == "observe") {
        std::vector<std::string> names = {"mm", "pr", "spmv", "fir"};
        if (a.tiny)
            names.resize(1);
        for (const auto &wl : names)
            p.sims.push_back(
                simJob(wl, ours, 4, a.tiny ? 0.05 : kPaperScale, a.seed));
        p.sinks = true;
        p.shape.eventqDepth = 4 * kGpuWindow;
    } else if (a.workload == "fuzz") {
        p.fuzzCases = a.tiny ? 60 : kFuzzCasesPerPass;
        // generateCase draws 2-4 nodes and at most 64 messages.
        p.shape.numNodes = 4;
        p.shape.eventqDepth = 64;
    } else {
        usage(("unknown workload " + a.workload).c_str());
    }
    if (!p.sims.empty())
        p.shape.pagesPerPeer =
            makeProfile(p.sims[0].workload).pagesPerPeer;
    return p;
}

// -------------------------------------------------------- correctness

/**
 * Counts a job must reproduce. The first run of a job records them;
 * every later run of it — any pass, profiler or sinks on or off —
 * must match exactly (host knobs never change the simulated answer).
 */
struct Fingerprint
{
    std::uint64_t a = 0, b = 0, c = 0, d = 0, e = 0;
    bool operator==(const Fingerprint &) const = default;
};

class Gate
{
  public:
    explicit Gate(std::uint64_t skew) : skew_(skew) {}

    /** Reference skew (non-zero only in the gate self-test). */
    std::uint64_t skew() const { return skew_; }

    bool
    check(std::size_t job, Fingerprint fp)
    {
        if (job >= ref_.size())
            ref_.resize(job + 1);
        if (!ref_[job]) {
            Fingerprint rec = fp;
            rec.a += skew_;
            ref_[job] = rec;
            return skew_ == 0;
        }
        return *ref_[job] == fp;
    }

  private:
    std::uint64_t skew_;
    std::vector<std::optional<Fingerprint>> ref_;
};

// ------------------------------------------------------- layer harvest

/** Per-layer accumulation over the jobs of one profiled pass. */
struct LayerAcc
{
    std::map<std::string, double> stat; ///< dumpStats, summed per suffix
    /** cycles: fuzz only (simulations keep theirs in Bench::records). */
    double events = 0, cycles = 0, remoteOps = 0, packets = 0,
           bytes = 0, metaBytes = 0, standaloneAcks = 0,
           migrations = 0, crossings = 0, windows = 0;
    OtpStats otp;
    double serialExecNs = 0, domainExecNs = 0, replayNs = 0,
           sinkFlushNs = 0;
    /** Sharded jobs: profiler ratios weighted by profiler wall. */
    double pdesWallNs = 0, barrierFracW = 0, effW = 0, imbW = 0;
    double traceEvents = 0, traceBytes = 0, sinkWriteNs = 0;
    double profileNs = 0, ctorNs = 0;
    double cases = 0, attacks = 0, macsVerified = 0, caseSetupNs = 0,
           caseRunNs = 0;
    std::set<std::string> coverage;
};

void
harvestStats(const MultiGpuSystem &sys, LayerAcc &acc)
{
    std::ostringstream os;
    sys.dumpStats(os);
    std::istringstream is(os.str());
    std::string name;
    double v = 0;
    std::string line;
    while (std::getline(is, line)) {
        std::istringstream ls(line);
        if (!(ls >> name >> v) || name.find("::") != std::string::npos)
            continue;
        const std::size_t dot = name.find('.');
        if (dot == std::string::npos)
            continue;
        const std::string comp = name.substr(0, dot);
        if (comp == "cpu" || comp.rfind("gpu", 0) == 0)
            acc.stat[name.substr(dot + 1)] += v;
        else
            acc.stat[name] += v;
    }
}

void
harvestProfiler(const Profiler &p, LayerAcc &acc, bool sharded)
{
    acc.serialExecNs += p.phaseHist(kProfSerialExec).sum();
    acc.domainExecNs += p.phaseHist(kProfDomainExec).sum();
    acc.replayNs += p.phaseHist(kProfCaptureReplay).sum();
    acc.sinkFlushNs += p.phaseHist(kProfSinkFlush).sum();
    if (sharded) {
        const double w = static_cast<double>(p.wallNs());
        acc.pdesWallNs += w;
        acc.barrierFracW += p.barrierFrac() * w;
        acc.effW += p.parallelEfficiencyPct() * w;
        acc.imbW += p.imbalance() * w;
    }
}

// --------------------------------------------------------------- passes

struct Mode
{
    bool prof = false;
    bool sinks = false;
};

struct JobRecord
{
    std::uint64_t cycles = 0;
    std::uint64_t bytes = 0;
};

/**
 * Host times of one pass at the reference machine speed (raw ns /
 * SpeedGauge::slowdown() measured just before each job); the raw
 * sums are kept for the printed table.
 */
struct PassResult
{
    double wallNs = 0;
    double setupNs = 0;
    double rawWallNs = 0;
    double rawSetupNs = 0;
    double slowdown = 0; ///< job-weighted mean over the pass
    double events = 0;
    std::vector<double> jobNs;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/** Everything a run keeps across passes. */
struct Bench
{
    Plan plan;
    Gate gate;
    SpanLog spans;
    perfbench::SpeedGauge gauge;
    /** Simulated results of each sim job (first run), for model.*. */
    std::vector<JobRecord> records;
    std::vector<std::string> failures;

    Bench(Plan p, std::uint64_t skew) : plan(std::move(p)), gate(skew) {}

    void
    fail(PassResult &pr, const std::string &why)
    {
        ++pr.failed;
        if (failures.size() < 8)
            failures.push_back(why);
    }
};

bool
checkSinks(const MultiGpuSystem &sys, const JsonShapeStream &trace,
           LayerAcc *acc, std::string &why)
{
    const auto &t = trace.shape();
    if (!t.sealed()) {
        why = "trace array not sealed";
        return false;
    }
    if (t.nestedArrayObjects() != sys.traceSink()->events()) {
        why = "trace event count differs from the sink's own";
        return false;
    }
    const std::uint64_t t0 = nowNs();
    JsonShapeStream m, h, w;
    sys.writeMetricsJson(m);
    sys.attribution()->writeJson(h);
    sys.wireObserver()->writeJson(w);
    if (acc) {
        acc->sinkWriteNs += static_cast<double>(nowNs() - t0);
        acc->traceEvents += static_cast<double>(t.nestedArrayObjects());
        acc->traceBytes += static_cast<double>(t.bytes());
    }
    for (const auto *s : {&m, &h, &w}) {
        if (!s->shape().sealed() || s->shape().bytes() == 0) {
            why = "metrics/attribution/wire JSON malformed";
            return false;
        }
    }
    return true;
}

void
runSimJob(Bench &b, std::size_t idx, const Mode &mode, PassResult &pr,
          LayerAcc *acc)
{
    const SimJob &job = b.plan.sims[idx];
    SpanLog &sp = b.spans;
    const double slow = b.gauge.slowdown();
    const std::uint64_t jobSpan = sp.open();

    // Set-up: profile, config and system construction.
    const std::uint64_t t0 = nowNs();
    double scale = job.cfg.scale;
    if (job.cfg.strongScaling)
        scale *= static_cast<double>(kScalingBaselineGpus) /
                 static_cast<double>(job.cfg.numGpus);
    const WorkloadProfile profile =
        makeProfile(job.workload, scale, job.cfg.numGpus);
    const std::uint64_t t1 = nowNs();
    const SystemConfig sc = makeSystemConfig(job.cfg);
    const std::uint64_t t2 = nowNs();
    // Declared before the system: the trace sink seals into it when
    // the system is destroyed.
    JsonShapeStream trace;
    auto sys = std::make_unique<MultiGpuSystem>(sc, profile);
    const std::uint64_t t3 = nowNs();
    sp.add("workload.makeProfile", jobSpan, t0, t1);
    sp.add("core.makeSystemConfig", jobSpan, t1, t2);
    sp.add("core.MultiGpuSystem", jobSpan, t2, t3);

    if (mode.sinks) {
        sys->enableTrace(trace);
        sys->enableAttribution();
        sys->enableMetrics(sc.observe.metricsInterval,
                           sc.observe.metricsRing);
        sys->enableWireObserver();
    }
    if (mode.prof)
        sys->enableProfiler();
    const RunResult r = sys->run();
    const std::uint64_t t4 = nowNs();
    sp.add("core.run", jobSpan, t3, t4);

    const std::uint64_t events = sys->executedEvents();
    std::string why;
    bool ok = r.completed;
    if (!ok)
        why = "missed the cycle cap";
    const std::uint64_t expectOps =
        static_cast<std::uint64_t>(job.cfg.numGpus) * profile.opsPerGpu +
        b.gate.skew();
    if (ok && r.remoteOps + r.localOps != expectOps) {
        ok = false;
        why = "remoteOps+localOps != ops the workload generated";
    }
    // Not the event count: the metric sampler adds its own events.
    if (ok && !b.gate.check(idx, Fingerprint{r.remoteOps, r.localOps,
                                             r.migrations, r.cycles,
                                             r.totalBytes})) {
        ok = false;
        why = "op/migration/cycle/byte counts differ from the recorded "
              "ones";
    }
    if (ok && mode.sinks && !checkSinks(*sys, trace, acc, why))
        ok = false;
    if (acc) {
        harvestStats(*sys, *acc);
        if (const Profiler *p = sys->profiler())
            harvestProfiler(*p, *acc, sys->sharded());
        acc->events += static_cast<double>(events);
        acc->remoteOps += static_cast<double>(r.remoteOps);
        acc->packets += static_cast<double>(r.packets);
        acc->bytes += static_cast<double>(r.totalBytes);
        acc->metaBytes += static_cast<double>(
            r.classBytes[static_cast<std::size_t>(TrafficClass::SecMeta)] +
            r.classBytes[static_cast<std::size_t>(TrafficClass::SecAck)]);
        acc->standaloneAcks += static_cast<double>(r.standaloneAcks);
        acc->migrations += static_cast<double>(r.migrations);
        acc->crossings += static_cast<double>(r.domainCrossings);
        acc->windows += static_cast<double>(r.pdesWindows);
        acc->otp += r.otp;
        acc->profileNs += static_cast<double>(t1 - t0);
        acc->ctorNs += static_cast<double>(t3 - t2);
    }
    if (b.records.size() < b.plan.sims.size())
        b.records.resize(b.plan.sims.size());
    if (b.records[idx].cycles == 0)
        b.records[idx] = JobRecord{r.cycles, r.totalBytes};
    const std::uint64_t t5 = nowNs();
    sp.add("bench.harvest", jobSpan, t4, t5);
    sys.reset();
    const std::uint64_t t6 = nowNs();
    sp.add("core.~MultiGpuSystem", jobSpan, t5, t6);
    sp.close(jobSpan, "job", t0, t6);

    ++pr.attempted;
    if (!ok)
        b.fail(pr, job.workload + "/" + job.label + ": " + why);
    pr.rawSetupNs += static_cast<double>(t3 - t0);
    pr.rawWallNs += static_cast<double>(t6 - t3);
    pr.setupNs += static_cast<double>(t3 - t0) / slow;
    pr.jobNs.push_back(static_cast<double>(t6 - t3) / slow);
    pr.slowdown += slow;
    pr.events += static_cast<double>(events);
}

void
runFuzzPass(Bench &b, std::uint64_t seed, PassResult &pr, LayerAcc *acc)
{
    SpanLog &sp = b.spans;
    verify::Rng rng(seed);
    for (std::uint32_t i = 0; i < b.plan.fuzzCases; ++i) {
        const double slow = b.gauge.slowdown();
        const std::uint64_t jobSpan = sp.open();
        const std::uint64_t t0 = nowNs();
        const verify::TestbedConfig cfg =
            verify::generateCase(rng, verify::SeededBug::None);
        const std::uint64_t t1 = nowNs();
        auto tb = std::make_unique<verify::VerifyTestbed>(cfg);
        const std::uint64_t t2 = nowNs();
        const verify::TestbedResult r = tb->run();
        const std::uint64_t t3 = nowNs();
        const std::uint64_t events = tb->eventQueue().executed();
        const Tick simEnd = tb->eventQueue().now();
        tb.reset();
        const std::uint64_t t4 = nowNs();
        sp.add("verify.generateCase", jobSpan, t0, t1);
        sp.add("verify.VerifyTestbed", jobSpan, t1, t2);
        sp.add("verify.run", jobSpan, t2, t3);
        sp.add("verify.~VerifyTestbed", jobSpan, t3, t4);
        sp.close(jobSpan, "job", t0, t4);

        ++pr.attempted;
        if (!r.pass()) {
            b.fail(pr, "case " + verify::encodeRepro(cfg) + ": " +
                           std::to_string(r.findings.size()) +
                           " oracle finding(s)");
        } else if (!b.gate.check(i, Fingerprint{r.delivered,
                                                 r.macsVerified,
                                                 r.attacksMounted,
                                                 r.droppedPackets,
                                                 events})) {
            b.fail(pr, "case " + std::to_string(i) +
                           ": counts differ from the recorded ones");
        }
        pr.rawSetupNs += static_cast<double>(t2 - t0);
        pr.rawWallNs += static_cast<double>(t4 - t2);
        pr.setupNs += static_cast<double>(t2 - t0) / slow;
        pr.jobNs.push_back(static_cast<double>(t4 - t2) / slow);
        pr.slowdown += slow;
        pr.events += static_cast<double>(events);
        if (acc) {
            acc->cases += 1;
            acc->attacks += static_cast<double>(r.attacksMounted);
            acc->macsVerified += static_cast<double>(r.macsVerified);
            acc->events += static_cast<double>(events);
            acc->cycles += static_cast<double>(simEnd);
            acc->caseSetupNs += static_cast<double>(t2 - t1);
            acc->caseRunNs += static_cast<double>(t3 - t2);
            for (const std::string &line : r.attackLog)
                acc->coverage.insert(
                    std::string(otpSchemeName(cfg.scheme)) +
                    (cfg.batching ? "+b " : " ") +
                    line.substr(0, line.find(' ')));
        }
    }
}

PassResult
runPass(Bench &b, std::uint64_t seed, const Mode &mode, LayerAcc *acc)
{
    PassResult pr;
    b.spans.on = acc != nullptr;
    if (b.plan.fuzzCases > 0) {
        runFuzzPass(b, seed, pr, acc);
    } else {
        for (std::size_t i = 0; i < b.plan.sims.size(); ++i)
            runSimJob(b, i, mode, pr, acc);
    }
    for (double ns : pr.jobNs)
        pr.wallNs += ns;
    pr.slowdown /= static_cast<double>(std::max<std::size_t>(1, pr.jobNs.size()));
    b.spans.on = false;
    return pr;
}

// --------------------------------------------------------------- output

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    /** "host" (wall clock), "sim" (simulated) or "count". */
    std::string kind;
    std::string note;
};

void
printTable(const std::vector<Metric> &ms)
{
    for (const Metric &m : ms)
        std::printf("  %-36s %16.6g %-10s %-5s %s\n", m.name.c_str(),
                    m.value, m.unit.c_str(), m.kind.c_str(),
                    m.note.c_str());
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &ms)
{
    std::ostringstream os;
    os.precision(17); // every digit as measured
    JsonWriter w(os);
    w.beginObject();
    w.field("correct", correct);
    w.field("attempted", attempted);
    w.field("failed", failed);
    w.key("metrics").beginObject();
    for (const Metric &m : ms) {
        w.key(m.name).beginObject();
        w.field("value", std::isfinite(m.value) ? m.value : 0.0);
        w.field("unit", m.unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    std::fflush(stdout);
    std::printf("%s\n", os.str().c_str());
}

/**
 * Peak resident set of this process image (VmHWM). getrusage's
 * ru_maxrss would also carry the launching process's peak across
 * exec.
 */
double
peakRssMb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

/** Paper values quoted in EXPERIMENTS.md (4 GPUs, mean over 17). */
struct PaperRow
{
    const char *metric;
    const char *label;
    double paper;
};

const std::vector<PaperRow> kPaperRows = {
    {"model.private_norm_time", "Priv4x", 1.195},
    {"model.cached_norm_time", "Cached4x", 1.163},
    {"model.dynamic_norm_time", "Dyn4x", 1.147},
    {"model.ours_norm_time", "Ours4x", 1.079},
};

/**
 * model.* rows: mean normalized time / traffic over the workloads
 * that ran with an unsecure baseline (paper4 only), plus summed
 * simulated cycles.
 */
std::vector<Metric>
modelMetrics(const Bench &b, bool print_fidelity, double fuzzCycles)
{
    std::map<std::string, std::uint64_t> base_cycles, base_bytes;
    std::map<std::string, std::vector<double>> norm, traffic;
    double cycles = fuzzCycles;
    for (std::size_t i = 0; i < b.plan.sims.size() && i < b.records.size();
         ++i) {
        const SimJob &j = b.plan.sims[i];
        cycles += static_cast<double>(b.records[i].cycles);
        if (j.cfg.scheme == OtpScheme::Unsecure) {
            base_cycles[j.workload] = b.records[i].cycles;
            base_bytes[j.workload] = b.records[i].bytes;
        }
    }
    for (std::size_t i = 0; i < b.plan.sims.size() && i < b.records.size();
         ++i) {
        const SimJob &j = b.plan.sims[i];
        const auto bc = base_cycles.find(j.workload);
        if (bc == base_cycles.end() || bc->second == 0)
            continue;
        norm[j.label].push_back(static_cast<double>(b.records[i].cycles) /
                                static_cast<double>(bc->second));
        traffic[j.label].push_back(
            static_cast<double>(b.records[i].bytes) /
            static_cast<double>(base_bytes[j.workload]));
    }
    std::vector<Metric> out;
    out.push_back({"model.sim_cycles", cycles, "cycles", "sim",
                   "simulated cycles summed over one pass's jobs"});
    if (print_fidelity && !norm.empty())
        std::printf("model fidelity (simulated, mean over %zu "
                    "workloads; paper values from EXPERIMENTS.md):\n",
                    norm.begin()->second.size());
    for (const PaperRow &row : kPaperRows) {
        const double v = mean(norm[row.label]);
        out.push_back({row.metric, v, "ratio", "sim", ""});
        if (print_fidelity && !norm.empty())
            std::printf("  %-24s sim %.4f  paper %.3f  error %+.2f%%\n",
                        row.metric, v, row.paper,
                        100.0 * (v - row.paper) / row.paper);
    }
    const double ot = mean(traffic["Ours4x"]);
    out.push_back({"model.ours_traffic", ot, "ratio", "sim", ""});
    if (print_fidelity && !norm.empty())
        std::printf("  %-24s sim %.4f  paper %.3f  error %+.2f%% "
                    "(paper: ~1.09)\n",
                    "model.ours_traffic", ot, 1.09,
                    100.0 * (ot - 1.09) / 1.09);
    return out;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

std::vector<Metric>
layerMetrics(const Bench &b, const LayerAcc &acc,
             const std::map<std::string, double> &probe,
             double profOverheadPct, double sinkOverheadPct)
{
    const auto st = [&acc](const char *k) {
        const auto it = acc.stat.find(k);
        return it == acc.stat.end() ? 0.0 : it->second;
    };
    const double sendTotal =
        static_cast<double>(acc.otp.total(Direction::Send));
    const double recvTotal =
        static_cast<double>(acc.otp.total(Direction::Recv));
    const auto hits = [&acc](Direction d) {
        return static_cast<double>(
            acc.otp.counts[static_cast<std::size_t>(d)]
                          [static_cast<std::size_t>(OtpOutcome::Hit)]);
    };
    // Where the kernel spent its execution time: serialExec slices,
    // sharded domainExec busy time, or the testbed run() calls.
    const double execNs = acc.serialExecNs + acc.domainExecNs +
                          acc.caseRunNs;
    const double l2acc = st("l2.hits") + st("l2.misses");
    const double tlbacc = st("l2tlb.hits") + st("l2tlb.misses");
    const double route = probe.at("net.route_ns." + b.plan.fabric);
    const bool pdes = acc.windows > 0;

    std::vector<Metric> m;
    const auto add = [&m](const std::string &n, double v, const char *u,
                          const char *k, const char *note = "") {
        m.push_back({n, v, u, k, note});
    };
    add("sim.events", acc.events, "count", "count");
    add("sim.serial_exec_ns_per_event",
        ratio(acc.serialExecNs, pdes ? 0 : acc.events), "ns/event",
        "host", "PROF serialExec / events (serial kernel)");
    add("sim.eventq_ns_per_op", probe.at("sim.eventq_ns_per_op"), "ns/op",
        "host", "probe: schedule + runOne");
    add("sim.pdes_windows", acc.windows, "count", "count");
    add("sim.pdes_events_per_window", ratio(acc.events, acc.windows),
        "events/window", "count");
    add("sim.pdes_barrier_frac", ratio(acc.barrierFracW, acc.pdesWallNs),
        "ratio", "host");
    add("sim.pdes_efficiency_pct", ratio(acc.effW, acc.pdesWallNs), "%",
        "host");
    add("sim.pdes_imbalance", ratio(acc.imbW, acc.pdesWallNs), "ratio",
        "host");
    add("sim.pdes_replay_us_per_window",
        ratio(acc.replayNs / 1e3, acc.windows), "us/window", "host");
    add("sim.domain_crossings", acc.crossings, "count", "count");
    add("sim.trace_events", acc.traceEvents, "count", "count");
    add("sim.trace_bytes", acc.traceBytes, "bytes", "count");
    add("sim.sink_overhead_pct", sinkOverheadPct, "%", "host",
        "sinks on vs the same jobs sinks off");
    add("sim.sink_flush_ms", (acc.sinkFlushNs + acc.sinkWriteNs) / 1e6,
        "ms/pass", "host", "PROF sinkFlush + sink JSON writes");
    add("sim.prof_overhead_pct", profOverheadPct, "%", "host",
        "profiler on vs off, alternating passes");

    add("mem.l2_hit_rate", ratio(st("l2.hits"), l2acc), "ratio", "sim");
    add("mem.l2tlb_hit_rate", ratio(st("l2tlb.hits"), tlbacc), "ratio",
        "sim");
    add("mem.iommu_walks", st("iommuWalks"), "count", "count");
    add("mem.migrations", acc.migrations, "count", "count");
    add("mem.cache_access_ns", probe.at("mem.cache_access_ns"), "ns/op",
        "host", "probe: L2 geometry");
    add("mem.l1_access_ns", probe.at("mem.l1_access_ns"), "ns/op", "host",
        "probe: L1 geometry");
    add("mem.cache_invalidate_page_ns",
        probe.at("mem.cache_invalidate_page_ns"), "ns/op", "host",
        "probe: L2, one 4 KiB page");
    add("mem.tlb_lookup_ns", probe.at("mem.tlb_lookup_ns"), "ns/op",
        "host", "probe: 1024-entry L2 TLB");

    add("net.packets", acc.packets, "count", "count");
    add("net.bytes", acc.bytes, "bytes", "count");
    add("net.meta_share", ratio(acc.metaBytes, acc.bytes), "ratio", "sim",
        "security metadata + ACK bytes / all bytes");
    for (const char *f : {"p2p", "nvswitch", "hier"})
        add(std::string("net.route_ns.") + f,
            probe.at(std::string("net.route_ns.") + f), "ns/op", "host",
            "probe: Topology::route");

    add("secure.send_pad_hit_rate",
        ratio(hits(Direction::Send), sendTotal), "ratio", "sim");
    add("secure.recv_pad_hit_rate",
        ratio(hits(Direction::Recv), recvTotal), "ratio", "sim");
    add("secure.standalone_acks", acc.standaloneAcks, "count", "count");
    add("secure.batch_trailers", st("channel.batchTrailers"), "count",
        "count");
    add("secure.pad_adjustments", st("channel.pads.adjustments"), "count",
        "count");
    add("secure.acquire_send_ns.private",
        probe.at("secure.acquire_send_ns.private"), "ns/op", "host",
        "probe");
    add("secure.acquire_send_ns.dynamic",
        probe.at("secure.acquire_send_ns.dynamic"), "ns/op", "host",
        "probe");

    add("crypto.seal64_ns", probe.at("crypto.seal64_ns"), "ns/op", "host",
        "probe: AesGcm::seal, 64 B");
    add("crypto.open64_ns", probe.at("crypto.open64_ns"), "ns/op", "host",
        "probe: AesGcm::open, 64 B");
    add("crypto.pad_derive_ns", probe.at("crypto.pad_derive_ns"), "ns/op",
        "host", "probe: PadFactory::derive");
    add("crypto.macs_verified",
        acc.macsVerified + st("channel.macsVerified"), "count", "count");

    add("verify.cases", acc.cases, "count", "count");
    add("verify.attacks", acc.attacks, "count", "count");
    add("verify.coverage", static_cast<double>(acc.coverage.size()),
        "count", "count", "distinct (scheme, batching, attack class)");
    add("verify.case_setup_us", ratio(acc.caseSetupNs / 1e3, acc.cases),
        "us/case", "host", "VerifyTestbed ctor");
    add("verify.case_run_us", ratio(acc.caseRunNs / 1e3, acc.cases),
        "us/case", "host", "VerifyTestbed::run");

    add("gpu.remote_ops", acc.remoteOps, "count", "count");
    add("gpu.window_stalls", st("windowStalls"), "count", "count");
    add("workload.profile_build_ms", acc.profileNs / 1e6, "ms/pass",
        "host", "makeProfile, summed over a pass");
    add("core.system_ctor_ms", acc.ctorNs / 1e6, "ms/pass", "host",
        "MultiGpuSystem ctor, summed over a pass");

    // Estimated layer shares: probe ns/op x the workload's op count
    // / the kernel's measured execution time. Estimates only — the
    // probe runs its layer in isolation, with warm caches.
    const double pct = 100.0;
    add("sim.eventq_share_est_pct",
        pct * ratio(probe.at("sim.eventq_ns_per_op") * acc.events, execNs),
        "%", "host", "estimate");
    add("mem.cache_share_est_pct",
        pct * ratio(probe.at("mem.cache_access_ns") * l2acc, execNs), "%",
        "host", "estimate");
    add("mem.tlb_share_est_pct",
        pct * ratio(probe.at("mem.tlb_lookup_ns") * tlbacc, execNs), "%",
        "host", "estimate");
    add("secure.pad_share_est_pct",
        pct * ratio(probe.at("secure.acquire_send_ns.dynamic") * sendTotal,
                    execNs),
        "%", "host", "estimate");
    add("net.route_share_est_pct",
        pct * ratio(route * acc.packets, execNs), "%", "host",
        "estimate");
    add("crypto.pad_derive_share_est_pct",
        pct * ratio(probe.at("crypto.pad_derive_ns") * 2 *
                        (acc.macsVerified + st("channel.macsVerified")),
                    execNs),
        "%", "host", "estimate: two derives per verified MAC");
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    Bench b(makePlan(args), args.corruptRef ? 1 : 0);
    const std::uint64_t budgetNs =
        static_cast<std::uint64_t>(args.seconds * 1e9);

    // Mode rotation. Untraced: every pass as a user runs it. Traced:
    // plain, profiled (and, for observe, sinks-off) passes alternate
    // so the overheads are measured under the same conditions.
    std::vector<Mode> rotation = {Mode{false, b.plan.sinks}};
    if (args.trace) {
        rotation.push_back(Mode{true, b.plan.sinks});
        if (b.plan.sinks)
            rotation.push_back(Mode{false, false});
    }

    std::map<std::string, double> probe;
    if (args.trace) {
        const std::uint64_t t0 = nowNs();
        probe = perfbench::runProbes(b.plan.shape);
        std::fprintf(stderr, "mgbench: probes took %.2f s\n",
                     (nowNs() - t0) / 1e9);
    }

    // Passes until the budget is spent: at least two full rotations,
    // and never a pass the remaining budget cannot fit.
    const std::size_t minPasses = 2 * rotation.size();
    std::vector<std::vector<PassResult>> byMode(rotation.size());
    std::vector<LayerAcc> accs;
    std::uint64_t spent = 0, attempted = 0, failed = 0;
    double lastPass = 0;
    for (std::size_t p = 0;; ++p) {
        if (p >= minPasses && spent + lastPass > budgetNs)
            break;
        const std::size_t mi = p % rotation.size();
        const Mode &mode = rotation[mi];
        LayerAcc *acc = nullptr;
        if (mode.prof)
            acc = &accs.emplace_back();
        const std::uint64_t t0 = nowNs();
        PassResult pr = runPass(b, args.seed, mode, acc);
        const std::uint64_t dt = nowNs() - t0;
        spent += dt;
        lastPass = static_cast<double>(dt);
        attempted += pr.attempted;
        failed += pr.failed;
        std::fprintf(stderr,
                     "mgbench: pass %zu (%s%s) wall %.3f s (raw %.3f s, "
                     "slowdown %.3f) setup %.3f s jobs %llu failed %llu\n",
                     p, mode.prof ? "prof" : "plain",
                     mode.sinks ? "+sinks" : "", pr.wallNs / 1e9,
                     pr.rawWallNs / 1e9, pr.slowdown, pr.setupNs / 1e9,
                     static_cast<unsigned long long>(pr.attempted),
                     static_cast<unsigned long long>(pr.failed));
        byMode[mi].push_back(std::move(pr));
    }
    for (const std::string &f : b.failures)
        std::printf("FAILED: %s\n", f.c_str());

    const auto medianOf = [](const std::vector<PassResult> &ps,
                             double PassResult::*field) {
        std::vector<double> v;
        for (const auto &p : ps)
            v.push_back(p.*field);
        return median(v);
    };
    const std::vector<PassResult> &plain = byMode[0];
    const double wallNs = medianOf(plain, &PassResult::wallNs);
    std::vector<double> rates, jobs;
    for (const auto &p : plain) {
        rates.push_back(p.events / (p.wallNs / 1e9));
        jobs.insert(jobs.end(), p.jobNs.begin(), p.jobNs.end());
    }
    std::sort(jobs.begin(), jobs.end());

    std::printf("mgbench workload=%s seed=%llu passes=%zu trace=%d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                plain.size(), args.trace ? 1 : 0);
    std::vector<Metric> e2e = {
        {"wall_s", wallNs / 1e9, "s", "host",
         "median pass over the job set, set-up excluded"},
        {"events_per_s", median(rates), "1/s", "host",
         "simulated events / wall_s"},
        {"job_p50_ms", median(jobs) / 1e6, "ms", "host",
         "median job, n=" + std::to_string(jobs.size())},
        {"setup_s", medianOf(plain, &PassResult::setupNs) / 1e9, "s",
         "host", "median pass: profiles + configs + constructors"},
        {"peak_rss_mb", peakRssMb(), "MB", "host", "this process"},
    };
    const double failedFrac =
        ratio(static_cast<double>(failed), static_cast<double>(attempted));
    std::vector<Metric> extra = {
        {"failed_frac", failedFrac, "ratio", "count",
         std::to_string(failed) + " of " + std::to_string(attempted) +
             " jobs (all modes)"},
        {"wall_raw_s", medianOf(plain, &PassResult::rawWallNs) / 1e9, "s",
         "host", "wall_s before the machine-speed scaling"},
        {"setup_raw_s", medianOf(plain, &PassResult::rawSetupNs) / 1e9,
         "s", "host", "setup_s before the machine-speed scaling"},
        {"machine_slowdown", medianOf(plain, &PassResult::slowdown), "x",
         "host",
         "calibration loop vs reference speed (" +
             std::to_string(b.gauge.samples()) + " samples)"},
    };
    // Highest percentile with at least ten jobs beyond it.
    if (jobs.size() >= 20) {
        const std::size_t k = jobs.size() - 11;
        const double pctile = 100.0 * static_cast<double>(k + 1) /
                              static_cast<double>(jobs.size());
        extra.push_back({"job_tail_ms", jobs[k] / 1e6, "ms", "host",
                         "p" + std::to_string(static_cast<int>(pctile)) +
                             " of " + std::to_string(jobs.size()) +
                             " jobs"});
    } else {
        std::printf("  job_tail_ms omitted: %zu jobs\n", jobs.size());
    }
    std::printf("end-to-end (tracing off):\n");
    printTable(e2e);
    printTable(extra);

    std::vector<Metric> model;
    if (!b.plan.sims.empty())
        model = modelMetrics(b, true, 0);

    const bool correct = failed == 0;
    if (!args.trace) {
        printResult(correct, attempted, failed, e2e);
        return 0;
    }

    // Traced run: per-layer metrics from the profiled passes.
    const std::vector<PassResult> &profd = byMode[1];
    const double profWall = medianOf(profd, &PassResult::wallNs);
    const double profOverhead = 100.0 * ratio(profWall - wallNs, wallNs);
    double sinkOverhead = 0;
    if (b.plan.sinks) {
        const double off = medianOf(byMode[2], &PassResult::wallNs);
        sinkOverhead = 100.0 * ratio(wallNs - off, off);
    }
    // Counts are identical in every profiled pass (the gate checks
    // it); host times take the median over profiled passes.
    LayerAcc acc = accs.front();
    const auto medAcc = [&accs](double LayerAcc::*f) {
        std::vector<double> v;
        for (const auto &a : accs)
            v.push_back(a.*f);
        return median(v);
    };
    for (double LayerAcc::*f :
         {&LayerAcc::serialExecNs, &LayerAcc::domainExecNs,
          &LayerAcc::replayNs, &LayerAcc::sinkFlushNs,
          &LayerAcc::sinkWriteNs, &LayerAcc::profileNs, &LayerAcc::ctorNs,
          &LayerAcc::caseSetupNs, &LayerAcc::caseRunNs})
        acc.*f = medAcc(f);
    std::vector<Metric> layers =
        layerMetrics(b, acc, probe, profOverhead, sinkOverhead);
    if (model.empty())
        model = modelMetrics(b, false, acc.cycles);
    layers.insert(layers.end(), model.begin(), model.end());

    std::printf("span self time (benchmark's own spans, all profiled "
                "passes):\n");
    for (const auto &[name, ns] : b.spans.selfNs())
        std::printf("  %-36s %12.3f ms\n", name.c_str(), ns / 1e6);
    if (!args.spansOut.empty())
        b.spans.write(args.spansOut);

    std::printf("per-layer (traced run; host = wall clock, sim = "
                "simulated):\n");
    printTable(layers);
    printResult(correct, attempted, failed, layers);
    return 0;
}
