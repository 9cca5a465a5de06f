/**
 * @file
 * Fig. 23: interconnect traffic of Private, Cached, and Ours
 * (Dynamic + Batching), normalized to the unsecure system (OTP 4x).
 */

#include <iostream>

#include "bench/common.hh"

using namespace mgsec;
using namespace mgsec::bench;

int
main(int argc, char **argv)
{
    const BenchArgs args = BenchArgs::parse(argc, argv);
    banner("Fig. 23 — traffic reduction from metadata batching",
           "Fig. 23 (Private / Cached / Ours, OTP 4x)");

    Sweep sweep(args);
    const Matrix m(sweep, privateCachedOurs());
    sweep.run();
    const Matrix::Metric traffic = &NormResult::traffic;
    m.table(traffic).print(std::cout);

    std::cout << "\nOurs cuts traffic by "
              << fmtPct(1.0 - m.mean(2, traffic) / m.mean(0, traffic))
              << " vs Private (paper: 20.2%) and "
              << fmtPct(1.0 - m.mean(2, traffic) / m.mean(1, traffic))
              << " vs Cached (paper: 20.0%)\n";
    return 0;
}
