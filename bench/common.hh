/**
 * @file
 * Shared plumbing for the figure/table benches: batched sweep
 * execution, seed-averaged normalized metrics, and common CLI
 * handling (SweepArgs; `--help` lists the flags, and --scale, --seeds
 * and --jobs let CI runs trade accuracy for speed).
 *
 * Benches queue their whole (workload x config) matrix on a
 * mgsec::Sweep and run it once: the job pool overlaps every
 * simulation and each unsecure baseline is simulated exactly once
 * per (workload, gpus, scale, seed) regardless of how many secure
 * configurations normalize against it. Results are keyed by
 * submission handle, so any --jobs value prints identical tables.
 */

#ifndef MGSEC_BENCH_COMMON_HH
#define MGSEC_BENCH_COMMON_HH

#include <iostream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/report.hh"
#include "core/sweep.hh"

namespace mgsec::bench
{

struct BenchArgs : SweepArgs
{
    static BenchArgs
    parse(int argc, char **argv)
    {
        BenchArgs a;
        a.parseArgs(argc, argv);
        return a;
    }
};

/** Seed-averaged metrics of one configuration vs. its baseline. */
using Norm = NormResult;

inline void
banner(const char *title, const char *paper_ref)
{
    std::cout << "=== " << title << "\n"
              << "    reproduces: " << paper_ref << "\n\n";
}

} // namespace mgsec::bench

#endif // MGSEC_BENCH_COMMON_HH
