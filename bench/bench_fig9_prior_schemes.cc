/**
 * @file
 * Fig. 9: execution times of the prior CPU-oriented OTP management
 * schemes (Private / Shared / Cached, all with the OTP 4x budget) on
 * a 4-GPU system, normalized to the unsecure baseline.
 */

#include <fstream>
#include <iostream>

#include "bench/common.hh"
#include "sim/json_writer.hh"

using namespace mgsec;
using namespace mgsec::bench;

int
main(int argc, char **argv)
{
    // --json: machine-readable results; the Golden.fig9 ctest
    // compares them byte for byte with tests/golden/fig9.json.
    BenchArgs args;
    args.parseArgs(argc, argv, {"json"});
    banner("Fig. 9 — prior OTP buffer management schemes",
           "Fig. 9 (Private / Shared / Cached, OTP 4x, 4 GPUs)");

    const std::vector<OtpScheme> schemes = {
        OtpScheme::Private, OtpScheme::Shared, OtpScheme::Cached};
    Table t({"workload", "Private", "Shared", "Cached"});
    std::vector<std::vector<double>> cols(schemes.size());

    Sweep sweep(args);
    std::vector<std::vector<std::size_t>> handles;
    for (const auto &wl : workloadNames()) {
        std::vector<std::size_t> hs;
        for (OtpScheme scheme : schemes) {
            ExperimentConfig cfg;
            cfg.scheme = scheme;
            hs.push_back(sweep.addNormalized(wl, cfg));
        }
        handles.push_back(std::move(hs));
    }
    sweep.run();

    const auto &names = workloadNames();
    for (std::size_t w = 0; w < names.size(); ++w) {
        std::vector<std::string> row = {names[w]};
        for (std::size_t s = 0; s < schemes.size(); ++s) {
            const Norm &n = sweep.normalized(handles[w][s]);
            row.push_back(fmtDouble(n.time));
            cols[s].push_back(n.time);
        }
        t.addRow(row);
    }
    std::vector<std::string> avg = {"MEAN"};
    for (const auto &c : cols)
        avg.push_back(fmtDouble(mean(c)));
    t.addRow(avg);
    t.print(std::cout);

    std::cout << "\npaper: average degradations 19.5% (Private), "
                 "166.3% (Shared), 16.3% (Cached)\n";

    if (!args.jsonOut.empty()) {
        std::ofstream os(args.jsonOut);
        if (!os) {
            std::cerr << "cannot write " << args.jsonOut << "\n";
            return 1;
        }
        JsonWriter w(os);
        w.beginObject();
        w.field("bench", std::string("fig9"));
        w.field("scale", args.scale);
        w.field("seeds", static_cast<std::uint64_t>(args.seeds));
        w.beginArray("rows");
        const std::vector<std::string> labels = {"Private", "Shared",
                                                 "Cached"};
        for (std::size_t wl = 0; wl < names.size(); ++wl) {
            w.beginObject();
            w.field("workload", names[wl]);
            for (std::size_t s = 0; s < schemes.size(); ++s) {
                w.key(labels[s]);
                w.value(sweep.normalized(handles[wl][s]).time);
            }
            w.endObject();
        }
        w.endArray();
        w.key("mean");
        w.beginObject();
        for (std::size_t s = 0; s < schemes.size(); ++s) {
            w.key(labels[s]);
            w.value(mean(cols[s]));
        }
        w.endObject();
        w.endObject();
        os << "\n";
        std::cout << "wrote " << args.jsonOut << "\n";
    }
    return 0;
}
