/**
 * @file
 * Fig. 10: distribution of OTP latency hiding (fully hidden /
 * partially hidden / not hidden) within authenticated
 * encryption (send) and decryption (recv) for Private, Shared, and
 * Cached on the 4-GPU system with OTP 4x. Averaged over all
 * benchmarks.
 */

#include <iostream>

#include "bench/common.hh"

using namespace mgsec;
using namespace mgsec::bench;

int
main(int argc, char **argv)
{
    const BenchArgs args = BenchArgs::parse(argc, argv);
    banner("Fig. 10 — OTP hit/partial/miss distribution",
           "Fig. 10 (Private / Shared / Cached, OTP 4x, 4 GPUs)");

    Sweep sweep(args);
    const Matrix m(sweep, {{"Private", {.scheme = OtpScheme::Private}},
                           {"Shared", {.scheme = OtpScheme::Shared}},
                           {"Cached", {.scheme = OtpScheme::Cached}}});
    sweep.run();
    m.otpTable().print(std::cout);

    std::cout << "\npaper: Private hides 36.9% (send) / 72.7% (recv);"
                 " Shared cannot hide sends; Cached hides 75.9% /"
                 " 79.0%\n";
    return 0;
}
