/**
 * @file
 * Fig. 26: sensitivity to AES-GCM latency (10-40 cycles) for
 * Private, Cached, and Ours on the 4-GPU system. The paper's point:
 * faster crypto barely helps, because the metadata bandwidth cost
 * remains.
 */

#include <iostream>

#include "bench/common.hh"

using namespace mgsec;
using namespace mgsec::bench;

int
main(int argc, char **argv)
{
    const BenchArgs args = BenchArgs::parse(argc, argv);
    banner("Fig. 26 — AES-GCM latency sensitivity",
           "Fig. 26 (10/20/30/40-cycle AES-GCM)");

    // The AES latency only matters to secured runs, so all four
    // latency points share the same memoized unsecure baselines.
    Sweep sweep(args);
    std::vector<Matrix> matrices;
    for (Cycles lat : {10, 20, 30, 40})
        matrices.emplace_back(sweep,
                              privateCachedOurs({.aesLatency = lat}));
    sweep.run();

    Table t({"latency", "Private", "Cached", "Ours"});
    for (const Matrix &m : matrices)
        t.addRow({std::to_string(m.columns()[0].cfg.aesLatency) + " cyc",
                  fmtDouble(m.mean(0)), fmtDouble(m.mean(1)),
                  fmtDouble(m.mean(2))});
    t.print(std::cout);

    std::cout << "\npaper: 40 -> 10 cycles moves Private only from "
                 "19.5% to 17.3% degradation (ours: batching keeps "
                 "its edge at every latency)\n";
    return 0;
}
