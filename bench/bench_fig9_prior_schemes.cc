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

    Sweep sweep(args);
    const Matrix m(sweep, {{"Private", {.scheme = OtpScheme::Private}},
                           {"Shared", {.scheme = OtpScheme::Shared}},
                           {"Cached", {.scheme = OtpScheme::Cached}}});
    sweep.run();
    m.table().print(std::cout);

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
        for (std::size_t wl = 0; wl < m.workloads().size(); ++wl) {
            w.beginObject();
            w.field("workload", m.workloads()[wl]);
            for (std::size_t c = 0; c < m.columns().size(); ++c)
                w.field(m.columns()[c].label, m.cell(wl, c).time);
            w.endObject();
        }
        w.endArray();
        w.key("mean").beginObject();
        for (std::size_t c = 0; c < m.columns().size(); ++c)
            w.field(m.columns()[c].label, m.mean(c));
        w.endObject();
        w.endObject();
        os << "\n";
        std::cout << "wrote " << args.jsonOut << "\n";
    }
    return 0;
}
