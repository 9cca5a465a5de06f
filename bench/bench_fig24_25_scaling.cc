/**
 * @file
 * Fig. 24/25: execution times on 8-GPU and 16-GPU systems for
 * Private, Cached, and Ours (Dynamic + Batching), normalized to the
 * unsecure system of the same size. Problem size stays fixed
 * (strong scaling), matching Section V-D.
 */

#include <iostream>

#include "bench/common.hh"

using namespace mgsec;
using namespace mgsec::bench;

int
main(int argc, char **argv)
{
    const BenchArgs args = BenchArgs::parse(argc, argv);
    banner("Fig. 24/25 — sensitivity to the number of GPUs",
           "Fig. 24 (8 GPUs), Fig. 25 (16 GPUs)");

    // Queue both system sizes in one sweep so the pool overlaps them.
    Sweep sweep(args);
    std::vector<Matrix> matrices;
    for (std::uint32_t gpus : {8u, 16u})
        matrices.emplace_back(sweep,
                              privateCachedOurs({.numGpus = gpus}));
    sweep.run();

    for (const Matrix &m : matrices) {
        const std::uint32_t gpus = m.columns()[0].cfg.numGpus;
        std::cout << "--- " << gpus << "-GPU system (OTP 4x => "
                  << gpus * 2 * 4 << " buffers per GPU)\n";
        m.table().print(std::cout);
        std::cout << "Ours vs Private: "
                  << fmtPct(1.0 - m.mean(2) / m.mean(0))
                  << ", Ours vs Cached: "
                  << fmtPct(1.0 - m.mean(2) / m.mean(1)) << "\n\n";
    }

    std::cout << "paper: Private degrades 29.3% (8 GPUs) and 32.1% "
                 "(16 GPUs); Ours improves on Private by 17.1% and "
                 "17.5%, and on Cached by 9.2% and 13.2%\n";
    return 0;
}
