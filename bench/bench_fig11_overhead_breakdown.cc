/**
 * @file
 * Fig. 11: cumulative overhead decomposition on the 4-GPU Private
 * (OTP 4x) system — "+SecureCommu" applies the secure communication
 * latency without metadata wire cost; "+Traffic" adds the security
 * metadata bandwidth. Normalized to the unsecure baseline.
 */

#include <iostream>

#include "bench/common.hh"

using namespace mgsec;
using namespace mgsec::bench;

int
main(int argc, char **argv)
{
    const BenchArgs args = BenchArgs::parse(argc, argv);
    banner("Fig. 11 — secure communication vs. metadata traffic",
           "Fig. 11 (+SecureCommu, +Traffic; Private OTP 4x)");

    Sweep sweep(args);
    const Matrix m(sweep, {{"+SecureCommu",
                            {.scheme = OtpScheme::Private,
                             .countMetadataBytes = false}},
                           {"+Traffic", {.scheme = OtpScheme::Private}}});
    sweep.run();
    m.table().print(std::cout);

    std::cout << "\npaper: +SecureCommu averages 8.2% overhead; the "
                 "metadata bandwidth raises it by a further 11.3%\n";
    return 0;
}
