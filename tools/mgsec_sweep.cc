/**
 * @file
 * mgsec_sweep — the full workload x scheme matrix in one run:
 * normalized execution time for every paper workload under every
 * protection scheme, plus traffic ratios. This is the "is the model
 * calibrated?" dashboard used while developing the reproduction.
 *
 * The matrix runs on the parallel job pool; the unsecure baseline of
 * each (workload, seed) is simulated once and shared by all six
 * configurations, and results are keyed by submission order, so any
 * --jobs value emits identical tables.
 *
 * --shape repeats the matrix once per traffic-shaping policy (one
 * table per policy; JSON rows gain a "shape" field), sharing the
 * unshaped baselines. The default (--shape none) reproduces the
 * historical output byte for byte.
 */

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "core/json_out.hh"

using namespace mgsec;
using mgsec::bench::Column;
using mgsec::bench::Matrix;

namespace
{

/** The six configurations, each on @p base (fabric and shape). */
std::vector<Column>
schemeColumns(const ExperimentConfig &base)
{
    struct Config
    {
        const char *label;
        OtpScheme scheme;
        bool batching;
        std::uint32_t mult;
    };
    const Config configs[] = {
        {"Priv4x", OtpScheme::Private, false, 4},
        {"Priv16x", OtpScheme::Private, false, 16},
        {"Shared", OtpScheme::Shared, false, 4},
        {"Cached4x", OtpScheme::Cached, false, 4},
        {"Dyn4x", OtpScheme::Dynamic, false, 4},
        {"Ours4x", OtpScheme::Dynamic, true, 4},
    };
    std::vector<Column> columns;
    for (const Config &c : configs) {
        ExperimentConfig e = base;
        e.scheme = c.scheme;
        e.batching = c.batching;
        e.otpMult = c.mult;
        columns.push_back({c.label, e});
    }
    return columns;
}

/** One matrix per shape; shaped = --shape was given. */
void
writeJson(std::ostream &os, const SweepArgs &args, const Sweep &sweep,
          bool shaped, const std::vector<Matrix> &matrices)
{
    JsonWriter w(os);
    w.beginObject();
    w.field("gpus", static_cast<std::uint64_t>(args.gpus));
    if (args.topology.kind != TopologyKind::P2p)
        w.field("topology",
                std::string(topologyKindName(args.topology.kind)));
    w.field("scale", args.scale);
    w.field("seeds", static_cast<std::uint64_t>(args.seeds));
    w.field("jobs", static_cast<std::uint64_t>(sweep.jobs()));
    w.field("baselineRuns", sweep.baselineRuns());
    w.field("baselineHits", sweep.baselineHits());
    w.beginArray("rows");
    for (std::size_t sh = 0; sh < args.shapes.size(); ++sh) {
        const Matrix &m = matrices[sh];
        for (std::size_t wl = 0; wl < m.workloads().size(); ++wl) {
            w.beginObject();
            w.field("workload", m.workloads()[wl]);
            if (shaped)
                w.field("shape",
                        std::string(
                            shapingPolicyName(args.shapes[sh])));
            for (std::size_t c = 0; c < m.columns().size(); ++c) {
                const NormResult &n = m.cell(wl, c);
                w.field("time" + m.columns()[c].label, n.time);
                w.field("traffic" + m.columns()[c].label, n.traffic);
            }
            w.endObject();
        }
    }
    w.endArray();
    w.endObject();
    os << "\n";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    SweepArgs args;
    args.scale = 1.0;
    args.parseArgs(argc, argv, {"gpus", "json", "observe", "shape",
                                "workloads", "topology"});

    // With the default --shape none / all-workloads arguments the
    // loops below degenerate to the historical single matrix and the
    // output stays byte-identical.
    const bool shaped = args.shapes.size() > 1 ||
                        args.shapes[0] != ShapingPolicy::None;
    const std::vector<std::string> names =
        args.workloads.empty() ? workloadNames() : args.workloads;

    std::cout << "normalized execution time, " << args.gpus
              << "-GPU system, " << args.seeds << " seed(s), scale "
              << args.scale;
    if (args.topology.kind != TopologyKind::P2p)
        std::cout << ", topology "
                  << topologyKindName(args.topology.kind);
    std::cout << "\n\n";

    Sweep sweep(args);
    std::vector<Matrix> matrices;
    for (const ShapingPolicy shape : args.shapes)
        matrices.emplace_back(sweep,
                              schemeColumns({.numGpus = args.gpus,
                                             .topology = args.topology,
                                             .shaping = shape}),
                              names);
    sweep.run();

    // Columns 0 and 5 (Priv4x, Ours4x) also report their traffic.
    const Matrix::Metric traffic = &NormResult::traffic;
    for (std::size_t sh = 0; sh < args.shapes.size(); ++sh) {
        if (shaped)
            std::cout << "shape: "
                      << shapingPolicyName(args.shapes[sh]) << "\n";
        const Matrix &m = matrices[sh];
        std::vector<std::string> header = {"workload"};
        for (const Column &c : m.columns())
            header.push_back(c.label);
        header.push_back("trafP4x");
        header.push_back("trafOurs");
        Table t(header);
        for (std::size_t wl = 0; wl <= names.size(); ++wl) {
            const bool last = wl == names.size();
            std::vector<std::string> row = {last ? "MEAN" : names[wl]};
            for (std::size_t c = 0; c < m.columns().size(); ++c)
                row.push_back(
                    fmtDouble(last ? m.mean(c) : m.cell(wl, c).time));
            for (std::size_t c : {0, 5})
                row.push_back(fmtDouble(last ? m.mean(c, traffic)
                                             : m.cell(wl, c).traffic));
            t.addRow(row);
        }
        t.print(std::cout);
        if (shaped && sh + 1 < args.shapes.size())
            std::cout << "\n";
    }

    std::cout << "\nbaseline cache: " << sweep.baselineRuns()
              << " baseline run(s), " << sweep.baselineHits()
              << " hit(s); " << sweep.jobs() << " job(s)\n";
    if (!args.observeDir.empty())
        std::cout << "observability files written to "
                  << args.observeDir << "/ (see OBSERVE_INDEX.json)\n";
    std::cout << "\npaper (4 GPUs): Private 1.195, Private16x 1.140, "
                 "Shared 2.663, Cached 1.163, Dynamic 1.147, Ours "
                 "1.079; traffic 1.365 -> ~1.09\n";

    if (!args.jsonOut.empty()) {
        if (args.jsonOut == "-") {
            writeJson(std::cout, args, sweep, shaped, matrices);
        } else {
            std::ofstream os(args.jsonOut);
            if (!os) {
                std::cerr << "cannot write " << args.jsonOut << "\n";
                return 1;
            }
            writeJson(os, args, sweep, shaped, matrices);
        }
    }
    return 0;
}
