/**
 * @file
 * Ablation: what does the host-side memory protection the threat
 * model assumes (counters + integrity tree over the untrusted CPU
 * DRAM) cost on top of the communication protection? The paper
 * assumes it exists (Sec. IV-A citing PENGLAI/Morphable Counters)
 * but never isolates its cost; this bench does.
 */

#include <iostream>

#include "bench/common.hh"

using namespace mgsec;
using namespace mgsec::bench;

int
main(int argc, char **argv)
{
    const BenchArgs args = BenchArgs::parse(argc, argv);
    banner("Ablation — host memory protection",
           "cost isolation of the Sec. IV-A assumption");

    // Dynamic + Batching with the host-DRAM tree forced off or on.
    auto ours = [](int host_mem_protect) {
        return ExperimentConfig{.scheme = OtpScheme::Dynamic,
                                .batching = true,
                                .hostMemProtect = host_mem_protect};
    };
    Sweep sweep(args);
    const Matrix m(sweep, {{"comm only", ours(0)},
                           {"comm + host memprot", ours(1)}});
    sweep.run();
    m.table().print(std::cout);

    std::cout << "\nexpected: the counter cache absorbs most host "
                 "accesses, so the tree costs little on top of the "
                 "communication protection — consistent with the "
                 "paper treating it as a solved prerequisite\n";
    return 0;
}
