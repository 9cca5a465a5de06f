/**
 * @file
 * Fig. 12: interconnect communication traffic of the secure system
 * (Private, OTP 4x) relative to the unsecure 4-GPU baseline, with
 * the byte-class decomposition our accounting provides.
 */

#include <iostream>

#include "bench/common.hh"

using namespace mgsec;
using namespace mgsec::bench;

int
main(int argc, char **argv)
{
    const BenchArgs args = BenchArgs::parse(argc, argv);
    banner("Fig. 12 — traffic increase from security metadata",
           "Fig. 12 (normalized interconnect traffic, Private 4x)");

    Sweep sweep(args);
    const Matrix m(sweep, {{"traffic", {.scheme = OtpScheme::Private}}});
    sweep.run();

    Table t({"workload", "traffic", "hdr%", "payload%", "meta%",
             "ack%"});
    for (std::size_t w = 0; w < m.workloads().size(); ++w) {
        const NormResult &n = m.cell(w, 0);
        const auto &cb = n.sample.classBytes;
        const double total = static_cast<double>(
            cb[0] + cb[1] + cb[2] + cb[3]);
        std::vector<std::string> row = {m.workloads()[w],
                                        fmtDouble(n.traffic)};
        for (Bytes b : cb)
            row.push_back(fmtPct(static_cast<double>(b) / total));
        t.addRow(std::move(row));
    }
    t.addRow({"MEAN", fmtDouble(m.mean(0, &NormResult::traffic)), "",
              "", "", ""});
    t.print(std::cout);

    std::cout << "\npaper: security metadata adds 36.5% interconnect "
                 "traffic on average\n";
    return 0;
}
