#include "core/options.hh"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "secure/batching.hh"
#include "secure/pad_pipeline.hh"

namespace mgsec
{

bool
parseShaping(const std::string &text, ShapingPolicy &out)
{
    std::string t = text;
    std::transform(t.begin(), t.end(), t.begin(), ::tolower);
    if (t == "none" || t == "off")
        out = ShapingPolicy::None;
    else if (t == "constant-rate" || t == "constant")
        out = ShapingPolicy::ConstantRate;
    else if (t == "batch-jitter" || t == "jitter")
        out = ShapingPolicy::BatchJitter;
    else
        return false;
    return true;
}

namespace
{

bool
parseBool(const std::string &v, bool &out)
{
    if (v == "1" || v == "true" || v == "yes" || v == "on")
        out = true;
    else if (v == "0" || v == "false" || v == "no" || v == "off")
        out = false;
    else
        return false;
    return true;
}

std::string
trim(const std::string &s)
{
    const auto b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos)
        return "";
    const auto e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
}

/** An on/off flag (parseBool values). */
Flag
onOffFlag(std::string name, std::string help, bool &out)
{
    return {std::move(name), "B", std::move(help),
            [&out](const std::string &v) { return parseBool(v, out); }};
}

} // anonymous namespace

Flags
RunOptions::flags()
{
    ObserveConfig &obs = exp.observe;
    TopologyConfig &topo = exp.topology;
    Flags t("mgsec_run — simulate one secure multi-GPU configuration\n"
            "\n");
    t.add(textFlag("workload", "NAME",
                   "one of the 17 paper workloads (default mm)",
                   workload))
        .add(gpusFlag(exp.numGpus))
        .add({"scheme", "S", "unsecure|private|shared|cached|dynamic",
              [this](const std::string &v) {
                  return parseScheme(v, exp.scheme);
              }})
        .add(onOffFlag("batching", "metadata batching on/off",
                       exp.batching))
        .add(numberFlag("batch-size", "N", "batch length (default 16)",
                        exp.batchSize, kMinBatchSize, kMaxBatchSize))
        .add(numberFlag("otp-mult", "N", "OTP Nx quota (default 4)",
                        exp.otpMult, 1u, 1u << 20))
        .add(numberFlag("aes-latency", "C", "AES-GCM latency in cycles",
                        exp.aesLatency, kMinAesLatency, 1ULL << 32))
        .add(scaleFlag(exp.scale))
        .add(numberFlag("seed", "N", "RNG seed", exp.seed, 0,
                        UINT64_MAX))
        .add(onOffFlag("count-metadata", "account metadata wire bytes",
                       exp.countMetadataBytes))
        .add(numberFlag("comm-sample-interval", "C",
                        "sample GPU1's comm mix", exp.commSampleInterval,
                        0, UINT64_MAX))
        .add(onOffFlag("strong-scaling", "shrink per-GPU work with N",
                       exp.strongScaling))
        .add(onOffFlag("baseline", "also run the unsecure baseline",
                       baseline))
        .add(textFlag("stats-out", "FILE",
                      "dump component stats ('-' = stdout)", statsOut))
        .add(textFlag("json-out", "FILE", "write the result as JSON",
                      jsonOut))
        .add(textFlag("trace-record", "PREFIX",
                      "write <prefix>.gpuN.trace files", traceRecord))
        .add(textFlag("trace-play", "FILE",
                      "replay GPU 1 from a trace file", tracePlay))
        .add(textFlag("metrics-out", "FILE",
                      "write sampled time-series metrics as JSON",
                      obs.metricsOut))
        .add(textFlag("trace-out", "FILE",
                      "write a Chrome trace_event timeline (Perfetto)",
                      obs.traceOut))
        .add(textFlag("stats-json", "FILE",
                      "dump component stats as JSON", obs.statsJsonOut))
        .add(numberFlag("metrics-interval", "C",
                        "cycles between metric samples (default 1000)",
                        obs.metricsInterval, 1, UINT64_MAX))
        .add(numberFlag("metrics-ring", "N",
                        "metric rows kept before dropping (default 4096)",
                        obs.metricsRing, 1u, 1u << 24))
        .add(onOffFlag("attr", "per-message latency attribution histograms",
                       obs.latencyAttr))
        .add(textFlag("hist-json", "FILE",
                      "write attribution histograms as JSON (implies\n"
                      "--attr on)", obs.histJsonOut))
        .add(textFlag("wire-json", "FILE",
                      "write the passive wire-observer dump as JSON",
                      obs.wireOut))
        .add(textFlag("prof-out", "FILE",
                      "write the host-side self-profiler dump as JSON",
                      obs.profOut))
        .add(textFlag("observe-dir", "DIR",
                      "bundle all sinks into DIR with sweep's naming:\n"
                      "METRICS_/TRACE_/STATS_/HIST_/WIRE_/PROF_<hash>.json"
                      "\n(+ OBSERVE_INDEX.json); excludes the per-sink "
                      "paths", observeDir))
        .add({"shape", "P", "traffic shaping: none|constant-rate|batch-jitter",
              [this](const std::string &v) {
                  return parseShaping(v, exp.shaping);
              }})
        .add(numberFlag("shape-interval", "C",
                        "constant-rate slot width in cycles (default 64)",
                        exp.shapeInterval, 1, 1ULL << 32))
        .add(numberFlag("shape-pad-to", "B",
                        "constant-rate wire-size quantum in bytes\n"
                        "(default 128)", exp.shapePadTo, 1, 1ULL << 20))
        .add(numberFlag("shape-jitter", "C",
                        "max batch-close jitter in cycles (default 96)",
                        exp.shapeJitter, 0, 1ULL << 32))
        .add(numberFlag("shape-chaff", "N",
                        "constant-rate cover traffic: full-mesh chaff until "
                        "a\nnode idles N slots (0 = off; default 512)",
                        exp.shapeChaffSlots, 0u, 1u << 20))
        .add(topologyFlag(topo.kind))
        .add(numberFlag("switch-radix", "N",
                        "max GPUs per crossbar (default 64)",
                        topo.switchRadix, 1u, 1024u))
        .add(numberFlag("switch-latency", "C",
                        "crossbar traversal in cycles (default 60)",
                        topo.switchLatency, 0, 1ULL << 32))
        .add(numberFlag("switch-bw", "F",
                        "switch egress port bytes/cycle (default 50)",
                        topo.switchBytesPerCycle, 1e-3, 1e6))
        .add(numberFlag("gpus-per-node", "N",
                        "hier: GPUs per fabric node (default 8)",
                        topo.gpusPerNode, 1u, 256u))
        .add(numberFlag("inter-latency", "C",
                        "hier: trunk crossing in cycles (default 300)",
                        topo.interLatency, 0, 1ULL << 32))
        .add(numberFlag("inter-bw", "F",
                        "hier: trunk port bytes/cycle (default 25)",
                        topo.interBytesPerCycle, 1e-3, 1e6))
        .add(simThreadsFlag(exp.simThreads))
        // CI-only fault injector for the mgsec_report gate self-check.
        .add(numberFlag("debug-pad-stall-pct", "N", "",
                        exp.debugPadStallPct, 0u, 10000u).hide())
        .add(debugFlag())
        .add({"config", "FILE", "read 'key = value' lines first",
              [this](const std::string &v) { return loadFile(v); }})
        .check([this] { return topologyError(exp.topology, exp.numGpus); })
        .check([this] { return observeConflict(); });
    return t;
}

bool
RunOptions::set(const std::string &key, const std::string &value)
{
    const Flags table = flags();
    const Flag *f = key == "config" ? nullptr : table.find(key);
    if (f == nullptr) {
        std::cerr << "unknown option '" << key << "'\n";
        return false;
    }
    if (f->set(value))
        return true;
    std::cerr << "bad value '" << value << "' for '" << key << "'\n";
    return false;
}

std::string
RunOptions::observeConflict() const
{
    const ObserveConfig &obs = exp.observe;
    if (observeDir.empty() ||
        (obs.metricsOut.empty() && obs.traceOut.empty() &&
         obs.statsJsonOut.empty() && obs.histJsonOut.empty() &&
         obs.wireOut.empty() && obs.profOut.empty()))
        return "";
    return "--observe-dir bundles --metrics-out/--trace-out/"
           "--stats-json/--hist-json/--wire-json/--prof-out; remove "
           "the explicit path options";
}

bool
RunOptions::finalizeObservability()
{
    if (observeDir.empty())
        return true;
    const std::string conflict = observeConflict();
    if (!conflict.empty()) {
        std::cerr << conflict << "\n";
        return false;
    }
    std::error_code ec;
    std::filesystem::create_directories(observeDir, ec);
    if (ec) {
        std::cerr << "cannot create observability directory '"
                  << observeDir << "': " << ec.message() << "\n";
        return false;
    }
    setObservePaths(exp.observe, observeDir, configHash(workload, exp));
    return true;
}

bool
RunOptions::loadFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is) {
        std::cerr << "cannot open config file '" << path << "'\n";
        return false;
    }
    std::string line;
    int lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        line = trim(line);
        if (line.empty())
            continue;
        const auto eq = line.find('=');
        if (eq == std::string::npos) {
            std::cerr << path << ":" << lineno
                      << ": expected 'key = value'\n";
            return false;
        }
        if (!set(trim(line.substr(0, eq)),
                 trim(line.substr(eq + 1))))
            return false;
    }
    return true;
}

bool
RunOptions::parse(int argc, char **argv)
{
    const Flags table = flags();
    const Flags::Status st = table.parse(argc, argv);
    if (st == Flags::Status::Help) {
        table.usage(std::cout);
        std::exit(0);
    }
    if (st == Flags::Status::Error)
        table.usage(std::cerr);
    return st == Flags::Status::Ok;
}

void
RunOptions::usage(std::ostream &os)
{
    RunOptions().flags().usage(os);
}

} // namespace mgsec
