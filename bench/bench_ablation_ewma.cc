/**
 * @file
 * Ablation beyond the paper's figures: the Dynamic allocator's
 * hyperparameters — EWMA weights (alpha, beta) and the adjustment
 * interval T. The paper picks alpha=0.9, beta=0.5, T=1000
 * empirically; this sweep shows the sensitivity.
 */

#include <iostream>

#include "bench/common.hh"

using namespace mgsec;
using namespace mgsec::bench;

int
main(int argc, char **argv)
{
    const BenchArgs args = BenchArgs::parse(argc, argv);
    banner("Ablation — Dynamic EWMA hyperparameters",
           "sensitivity of Table III's alpha=0.9, beta=0.5, T=1000");

    auto ours = [](std::string label, DynamicPadTable::Params p) {
        return Column{std::move(label), {.scheme = OtpScheme::Dynamic,
                                         .batching = true,
                                         .dynParams = p}};
    };
    std::vector<Column> alphas, betas, intervals;
    for (double a : {0.3, 0.5, 0.7, 0.9, 1.0})
        alphas.push_back(ours(fmtDouble(a, 1), {.alpha = a}));
    for (double b : {0.1, 0.3, 0.5, 0.7, 0.9})
        betas.push_back(ours(fmtDouble(b, 1), {.beta = b}));
    for (Cycles t : {250, 500, 1000, 2000, 4000})
        intervals.push_back(ours(std::to_string(t), {.interval = t}));

    // All parameter variants normalize against the same unsecure
    // baselines, so one sweep memoizes them across the whole study.
    Sweep sweep(args);
    const Matrix ma(sweep, alphas);
    const Matrix mb(sweep, betas);
    const Matrix mt(sweep, intervals);
    sweep.run();

    ma.meanTable("alpha").print(std::cout);
    std::cout << "\n";
    mb.meanTable("beta").print(std::cout);
    std::cout << "\n";
    mt.meanTable("T (cycles)").print(std::cout);
    return 0;
}
