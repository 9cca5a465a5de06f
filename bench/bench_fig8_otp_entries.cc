/**
 * @file
 * Fig. 8: execution time of the Private scheme in a 4-GPU system as
 * the OTP buffer quota per pair grows from 1x to 16x, normalized to
 * the unsecure system.
 */

#include <iostream>

#include "bench/common.hh"

using namespace mgsec;
using namespace mgsec::bench;

int
main(int argc, char **argv)
{
    const BenchArgs args = BenchArgs::parse(argc, argv);
    banner("Fig. 8 — Private sensitivity to OTP buffer entries",
           "Fig. 8 (OTP 1x..16x, 4 GPUs)");

    std::vector<Column> columns;
    for (std::uint32_t mult : {1u, 2u, 4u, 8u, 16u})
        columns.push_back({std::to_string(mult) + "x",
                           {.scheme = OtpScheme::Private,
                            .otpMult = mult}});
    Sweep sweep(args);
    const Matrix m(sweep, columns);
    sweep.run();
    m.table().print(std::cout);

    std::cout << "\npaper: OTP 1x degrades 121.1% on average; 16x "
                 "degrades 14.0%\n";
    return 0;
}
