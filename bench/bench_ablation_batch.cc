/**
 * @file
 * Ablation beyond the paper's figures: batch size sweep (n = 4..64)
 * for Dynamic + Batching on the 4-GPU system. The paper fixes
 * n = 16 from the Fig. 15/16 burstiness study; this shows the
 * trade-off directly.
 */

#include <iostream>

#include "bench/common.hh"

using namespace mgsec;
using namespace mgsec::bench;

int
main(int argc, char **argv)
{
    const BenchArgs args = BenchArgs::parse(argc, argv);
    banner("Ablation — metadata batch size",
           "design-space extension of Sec. IV-C (paper uses n=16)");

    std::vector<Column> columns;
    for (std::uint32_t n : {4u, 8u, 16u, 32u, 64u})
        columns.push_back({std::to_string(n),
                           {.scheme = OtpScheme::Dynamic,
                            .batching = true,
                            .batchSize = n}});
    Sweep sweep(args);
    const Matrix m(sweep, columns);
    sweep.run();
    m.meanTable("batch n", true).print(std::cout);

    std::cout << "\nexpected: traffic falls with n, but large "
                 "batches delay verification/ACKs for little extra "
                 "byte savings\n";
    return 0;
}
