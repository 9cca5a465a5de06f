/**
 * @file
 * Fig. 22: OTP latency-hiding distribution of Private, Cached, and
 * Ours (Dynamic + Batching) with OTP 4x on the 4-GPU system.
 */

#include <iostream>

#include "bench/common.hh"

using namespace mgsec;
using namespace mgsec::bench;

int
main(int argc, char **argv)
{
    const BenchArgs args = BenchArgs::parse(argc, argv);
    banner("Fig. 22 — OTP distribution incl. the proposed scheme",
           "Fig. 22 (Private / Cached / Ours, OTP 4x)");

    Sweep sweep(args);
    const Matrix m(sweep, privateCachedOurs());
    sweep.run();
    m.otpTable().print(std::cout);

    std::cout << "\npaper: Ours hides 64.6% of encryption and 76.2% "
                 "of decryption latency, beating Private's 36.8% "
                 "send-side hiding\n";
    return 0;
}
