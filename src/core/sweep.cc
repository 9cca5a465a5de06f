#include "core/sweep.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <set>
#include <sstream>
#include <utility>

#include "core/flags.hh"
#include "core/job_pool.hh"
#include "core/options.hh"
#include "sim/debug.hh"
#include "sim/json_writer.hh"
#include "sim/logging.hh"
#include "workload/profile.hh"

namespace mgsec
{

namespace
{

/**
 * Parse each item of the comma-separated @p list with @p parse;
 * @p out is untouched unless every item parses.
 */
template <typename T, typename ParseFn>
bool
parseList(const std::string &list, std::vector<T> &out, ParseFn parse)
{
    std::vector<T> items;
    // The extra comma makes getline yield a trailing empty item.
    std::istringstream is(list + ",");
    for (std::string item; std::getline(is, item, ',');) {
        if (!parse(item, items.emplace_back()))
            return false;
    }
    out = std::move(items);
    return true;
}

bool
parseWorkload(const std::string &name, std::string &out)
{
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), name) == names.end())
        return false;
    out = name;
    return true;
}

} // anonymous namespace

void
SweepArgs::parseArgs(int argc, char **argv,
                     std::initializer_list<std::string_view> optional)
{
    // Honor MGSEC_DEBUG in every bench/tool; Sweep::run() drops to
    // one worker when any flag is on so traces stay readable.
    debug::enableFromEnv();
    const std::vector<Flag> extras = {
        gpusFlag(gpus),
        textFlag("json", "F", "also write the results as JSON to F",
                 jsonOut),
        textFlag("observe", "DIR",
                 "write per-job METRICS_/TRACE_/STATS_/HIST_/WIRE_/"
                 "PROF_ JSON files\n(tagged by config hash) plus an "
                 "OBSERVE_INDEX.json and an\nappend-only PROGRESS.jsonl "
                 "heartbeat into DIR",
                 observeDir),
        {"shape", "P[,P...]",
         "shaping policies to sweep: none|constant-rate|batch-jitter\n"
         "(default none; extra policies add rows to the matrix)",
         [this](const std::string &v) {
             return parseList(v, shapes, parseShaping);
         }},
        {"workloads", "W[,W...]",
         "restrict the matrix to these workloads (default all)",
         [this](const std::string &v) {
             return parseList(v, workloads, parseWorkload);
         }},
        topologyFlag(topology.kind),
    };
    Flags t(std::string("usage: ") + argv[0] + " [options]\n");
    t.add(scaleFlag(scale))
        .add(numberFlag("seeds", "N",
                        "seeds averaged per configuration (default " +
                            std::to_string(seeds) + ")",
                        seeds, 1, 10000))
        .add(numberFlag("jobs", "N",
                        "parallel simulation jobs (default: all "
                        "hardware threads)",
                        jobs, 1u, 1024u));
    std::size_t added = 0;
    for (const Flag &f : extras) {
        if (std::find(optional.begin(), optional.end(), f.name) !=
            optional.end()) {
            t.add(f);
            ++added;
        }
    }
    MGSEC_ASSERT(added == optional.size(), "unknown optional sweep flag");
    t.add(simThreadsFlag(simThreads))
        .add(debugFlag())
        .check([this] { return topologyError(topology, gpus); });
    t.parseOrExit(argc, argv);
}

namespace
{

/** The unsecure configuration a normalized run measures against. */
ExperimentConfig
baselineConfig(ExperimentConfig cfg)
{
    cfg.scheme = OtpScheme::Unsecure;
    cfg.batching = false;
    cfg.countMetadataBytes = true;
    cfg.hostMemProtect = -1; // auto: disabled for Unsecure
    // Shaping is gated on secured(), so an unsecure baseline never
    // shapes; clearing the knob keeps one memoized baseline (and one
    // stable config hash) shared across every shaping policy.
    cfg.shaping = ShapingPolicy::None;
    return cfg;
}

/**
 * Cache key of a baseline: only the knobs that can change an
 * unsecure run. The security knobs (otpMult, aesLatency, batchSize,
 * dynParams, countMetadataBytes) are all gated behind
 * SecurityConfig::secured(), so sweeps over them share one baseline.
 */
std::string
baselineKey(const std::string &workload, const ExperimentConfig &cfg)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), "|g%u|s%.17g|d%llu|ss%d|ci%llu",
                  cfg.numGpus, cfg.scale,
                  static_cast<unsigned long long>(cfg.seed),
                  cfg.strongScaling ? 1 : 0,
                  static_cast<unsigned long long>(
                      cfg.commSampleInterval));
    std::string key = workload + buf;
    // The fabric changes an unsecure run's timing, so non-default
    // topologies get their own memoized baselines; p2p keeps the
    // historical key.
    if (cfg.topology.kind != TopologyKind::P2p) {
        char tb[96];
        std::snprintf(tb, sizeof(tb), "|t%s/%u/%llu/%.17g/%u/%llu/"
                                      "%.17g",
                      topologyKindName(cfg.topology.kind),
                      cfg.topology.switchRadix,
                      static_cast<unsigned long long>(
                          cfg.topology.switchLatency),
                      cfg.topology.switchBytesPerCycle,
                      cfg.topology.gpusPerNode,
                      static_cast<unsigned long long>(
                          cfg.topology.interLatency),
                      cfg.topology.interBytesPerCycle);
        key += tb;
    }
    return key;
}

} // anonymous namespace

Sweep::Sweep(const SweepArgs &args)
    : Sweep(args.scale, args.seeds, args.jobs)
{
    sim_threads_ = args.simThreads;
    if (!args.observeDir.empty())
        setObservability(args.observeDir);
}

Sweep::Sweep(double scale, int seeds, unsigned jobs)
    : scale_(scale), seeds_(seeds), jobs_(jobs)
{
    MGSEC_ASSERT(scale_ > 0.0, "non-positive sweep scale");
    MGSEC_ASSERT(seeds_ >= 1, "sweep needs at least one seed");
}

void
Sweep::setObservability(const std::string &dir, Cycles interval)
{
    MGSEC_ASSERT(!ran_, "Sweep::setObservability after run()");
    MGSEC_ASSERT(!dir.empty(), "empty observability directory");
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        warn("cannot create observability directory '%s': %s",
             dir.c_str(), ec.message().c_str());
        return;
    }
    observe_dir_ = dir;
    observe_interval_ = interval;
}

std::size_t
Sweep::addNormalized(const std::string &workload,
                     ExperimentConfig cfg)
{
    MGSEC_ASSERT(!ran_, "Sweep::add after run()");
    cfg.scale = scale_;
    cfg.simThreads = sim_threads_;
    norm_.push_back(NormRequest{workload, cfg, NormResult{}});
    return norm_.size() - 1;
}

std::size_t
Sweep::addRaw(const std::string &workload, ExperimentConfig cfg)
{
    MGSEC_ASSERT(!ran_, "Sweep::add after run()");
    cfg.scale = scale_;
    cfg.simThreads = sim_threads_;
    raw_.push_back(RawRequest{workload, cfg, RunResult{}});
    return raw_.size() - 1;
}

void
Sweep::run()
{
    MGSEC_ASSERT(!ran_, "Sweep::run() called twice");
    ran_ = true;

    unsigned jobs = jobs_ == 0 ? JobPool::defaultWorkers() : jobs_;
    if (jobs > 1) {
        // Debug traces from concurrent runs interleave into one
        // stream; keep them readable by serializing.
        for (const debug::DebugFlag *f : debug::DebugFlag::all()) {
            if (f->enabled()) {
                warn("debug tracing enabled; running sweep with "
                     "--jobs 1 so traces stay readable");
                jobs = 1;
                break;
            }
        }
    }
    resolved_jobs_ = jobs;

    JobPool pool(jobs);

    // With an observability directory set, each distinct
    // configuration writes sinks tagged by its config hash, so
    // parallel jobs never share a file name. A duplicate submission
    // (the same config queued twice) keeps only the first writer.
    std::vector<ObserveIndexEntry> observe_index;
    std::set<std::string> observe_seen;
    auto withObserve = [&](const std::string &workload,
                           ExperimentConfig cfg) {
        if (observe_dir_.empty())
            return cfg;
        const std::string h = configHash(workload, cfg);
        if (!observe_seen.insert(h).second) {
            cfg.observe = ObserveConfig{};
            return cfg;
        }
        setObservePaths(cfg.observe, observe_dir_, h);
        cfg.observe.metricsInterval = observe_interval_;
        observe_index.push_back({h, configKey(workload, cfg)});
        return cfg;
    };

    // Incremental OBSERVE_INDEX: rewritten after every harvested
    // job, listing only the entries whose runs have been harvested
    // so far — a killed campaign keeps a valid index of completed
    // artifacts, and the final rewrite is byte-identical to the
    // historical post-sweep write.
    std::set<std::string> harvested;
    auto writeIndex = [&]() {
        if (observe_dir_.empty())
            return;
        std::vector<ObserveIndexEntry> done;
        for (const ObserveIndexEntry &e : observe_index)
            if (harvested.count(e.hash))
                done.push_back(e);
        writeObserveIndex(observe_dir_, observe_interval_, done);
    };
    auto harvestedJob = [&](const std::string &workload,
                            const ExperimentConfig &cfg) {
        if (observe_dir_.empty())
            return;
        harvested.insert(configHash(workload, cfg));
        writeIndex();
    };

    // Campaign heartbeat: every job appends queued/started/finished
    // lines to an append-only PROGRESS.jsonl (one JSON object per
    // line) so a long campaign's health — throughput, stragglers, a
    // running ETA — is observable while it runs. Wall-clock data
    // lives only here and in PROF files, never in sim artifacts.
    std::ofstream progress;
    std::mutex prog_mu;
    std::uint64_t submitted = 0; ///< guarded by prog_mu
    std::uint64_t finished = 0;  ///< guarded by prog_mu
    const auto sweep_t0 = std::chrono::steady_clock::now();
    auto secsSince = [sweep_t0]() {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - sweep_t0)
            .count();
    };
    if (!observe_dir_.empty()) {
        progress.open(observe_dir_ + "/PROGRESS.jsonl",
                      std::ios::app);
        if (!progress)
            warn("cannot open '%s/PROGRESS.jsonl'",
                 observe_dir_.c_str());
    }
    auto submitJob = [&](const std::string &workload,
                         const ExperimentConfig &cfg) {
        if (!progress.is_open())
            return pool.submit(workload, cfg);
        const std::string h = configHash(workload, cfg);
        std::uint64_t seq = 0;
        {
            std::lock_guard<std::mutex> g(prog_mu);
            seq = submitted++;
            JsonWriter w(progress);
            w.beginObject();
            w.field("event", std::string("queued"));
            w.field("seq", seq);
            w.field("hash", h);
            w.field("workload", workload);
            w.endObject();
            progress << "\n" << std::flush;
        }
        return pool.submitTask([&, workload, cfg, h, seq]() {
            {
                std::lock_guard<std::mutex> g(prog_mu);
                JsonWriter w(progress);
                w.beginObject();
                w.field("event", std::string("started"));
                w.field("seq", seq);
                w.field("hash", h);
                w.field("workload", workload);
                w.field("tSec", secsSince());
                w.endObject();
                progress << "\n" << std::flush;
            }
            const double t0 = secsSince();
            RunResult r = runWorkload(workload, cfg);
            const double wall = secsSince() - t0;
            {
                std::lock_guard<std::mutex> g(prog_mu);
                const std::uint64_t done = ++finished;
                const double elapsed = secsSince();
                const double eta =
                    done > 0 && submitted > done
                        ? elapsed / static_cast<double>(done) *
                              static_cast<double>(submitted - done)
                        : 0.0;
                JsonWriter w(progress);
                w.beginObject();
                w.field("event", std::string("finished"));
                w.field("seq", seq);
                w.field("hash", h);
                w.field("workload", workload);
                w.field("tSec", elapsed);
                w.field("wallSec", wall);
                w.field("done", done);
                w.field("total", submitted);
                w.field("etaSec", eta);
                w.endObject();
                progress << "\n" << std::flush;
            }
            return r;
        });
    };

    // Submit in deterministic (handle, seed) order. Baselines are
    // memoized as shared futures so every normalized request of the
    // same (workload, gpus, scale, seed) reuses one simulation.
    std::map<std::string, std::shared_future<RunResult>> baselines;
    struct NormFutures
    {
        std::vector<std::future<RunResult>> secure;
        std::vector<std::shared_future<RunResult>> base;
    };
    std::vector<NormFutures> norm_futs(norm_.size());

    for (std::size_t i = 0; i < norm_.size(); ++i) {
        NormRequest &req = norm_[i];
        for (int s = 1; s <= seeds_; ++s) {
            ExperimentConfig cfg = req.cfg;
            cfg.seed = static_cast<std::uint64_t>(s);
            const ExperimentConfig base = baselineConfig(cfg);
            const std::string key = baselineKey(req.workload, base);
            auto it = baselines.find(key);
            if (it == baselines.end()) {
                it = baselines
                         .emplace(key,
                                  submitJob(req.workload,
                                            withObserve(
                                                req.workload, base))
                                      .share())
                         .first;
                ++baseline_runs_;
            } else {
                ++baseline_hits_;
            }
            norm_futs[i].base.push_back(it->second);
            norm_futs[i].secure.push_back(submitJob(
                req.workload, withObserve(req.workload, cfg)));
        }
    }

    std::vector<std::future<RunResult>> raw_futs;
    raw_futs.reserve(raw_.size());
    for (RawRequest &req : raw_)
        raw_futs.push_back(submitJob(
            req.workload, withObserve(req.workload, req.cfg)));

    // Seed the index right away: a campaign killed before its first
    // harvest still leaves a parseable (empty) manifest behind.
    writeIndex();

    // Harvest in submission order; the reduction below is the exact
    // arithmetic of the historical serial runNormalized() loop, so
    // converted benches reproduce their old output digit-for-digit.
    for (std::size_t i = 0; i < norm_.size(); ++i) {
        NormRequest &req = norm_[i];
        for (int s = 1; s <= seeds_; ++s) {
            const std::size_t k = static_cast<std::size_t>(s - 1);
            ExperimentConfig cfg = req.cfg;
            cfg.seed = static_cast<std::uint64_t>(s);
            const RunResult &b = norm_futs[i].base[k].get();
            harvestedJob(req.workload, baselineConfig(cfg));
            const RunResult r = norm_futs[i].secure[k].get();
            harvestedJob(req.workload, cfg);
            req.result.time += normalizedTime(r, b) / seeds_;
            req.result.traffic += normalizedTraffic(r, b) / seeds_;
            if (s == seeds_)
                req.result.sample = r;
        }
    }
    for (std::size_t i = 0; i < raw_.size(); ++i) {
        raw_[i].result = raw_futs[i].get();
        harvestedJob(raw_[i].workload, raw_[i].cfg);
    }
}

const NormResult &
Sweep::normalized(std::size_t handle) const
{
    MGSEC_ASSERT(ran_, "Sweep::normalized before run()");
    MGSEC_ASSERT(handle < norm_.size(), "bad normalized handle");
    return norm_[handle].result;
}

const RunResult &
Sweep::raw(std::size_t handle) const
{
    MGSEC_ASSERT(ran_, "Sweep::raw before run()");
    MGSEC_ASSERT(handle < raw_.size(), "bad raw handle");
    return raw_[handle].result;
}

} // namespace mgsec
