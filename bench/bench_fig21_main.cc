/**
 * @file
 * Fig. 21 — the headline result: 4-GPU execution times under
 * Private (OTP 4x), Private (OTP 16x), Cached (OTP 4x), the
 * proposed Dynamic (OTP 4x), and Dynamic + metadata Batching,
 * normalized to the unsecure system.
 */

#include <iostream>

#include "bench/common.hh"

using namespace mgsec;
using namespace mgsec::bench;

int
main(int argc, char **argv)
{
    const BenchArgs args = BenchArgs::parse(argc, argv);
    banner("Fig. 21 — main 4-GPU comparison",
           "Fig. 21 (Private 4x/16x, Cached 4x, +Dynamic, "
           "+Batching)");

    Sweep sweep(args);
    const Matrix m(
        sweep,
        {{"Private(4x)", {.scheme = OtpScheme::Private}},
         {"Private(16x)", {.scheme = OtpScheme::Private, .otpMult = 16}},
         {"Cached(4x)", {.scheme = OtpScheme::Cached}},
         {"Dynamic(4x)", {.scheme = OtpScheme::Dynamic}},
         {"Batching(4x)",
          {.scheme = OtpScheme::Dynamic, .batching = true}}});
    sweep.run();
    m.table().print(std::cout);

    const double priv = m.mean(0);
    const double cached = m.mean(2);
    const double ours = m.mean(4);
    std::cout << "\nOurs (Dynamic+Batching) vs Private(4x): "
              << fmtPct(1.0 - ours / priv) << " faster\n"
              << "Ours vs Cached(4x): "
              << fmtPct(1.0 - ours / cached) << " faster\n"
              << "paper: degradations 19.5% / 14.0% / 16.3% / 14.7% "
                 "/ 7.9%; Ours is 11.6% faster than Private and "
                 "8.4% faster than Cached\n";
    return 0;
}
