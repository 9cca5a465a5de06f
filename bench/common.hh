/**
 * @file
 * Shared plumbing for the figure/table benches: common CLI handling
 * (SweepArgs; `--help` lists the flags, and --scale, --seeds and
 * --jobs let CI runs trade accuracy for speed) and the Matrix every
 * normalized figure is declared as.
 *
 * A figure is a list of labelled configurations (its columns) run
 * on every workload and normalized to the unsecure system. Benches
 * queue their Matrices on one mgsec::Sweep and run it once: the job
 * pool overlaps every simulation and each unsecure baseline is
 * simulated exactly once per (workload, gpus, scale, seed) regardless
 * of how many columns normalize against it. Cells are keyed by
 * submission handle, so any --jobs value prints identical tables.
 */

#ifndef MGSEC_BENCH_COMMON_HH
#define MGSEC_BENCH_COMMON_HH

#include <iostream>
#include <string>
#include <utility>
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

inline void
banner(const char *title, const char *paper_ref)
{
    std::cout << "=== " << title << "\n"
              << "    reproduces: " << paper_ref << "\n\n";
}

/** One labelled configuration of a figure: a column of its table. */
struct Column
{
    std::string label;
    ExperimentConfig cfg;
};

/** Private, Cached and Ours (Dynamic + Batching), each on @p base. */
inline std::vector<Column>
privateCachedOurs(ExperimentConfig base = {})
{
    ExperimentConfig priv = base, cached = base, ours = base;
    priv.scheme = OtpScheme::Private;
    cached.scheme = OtpScheme::Cached;
    ours.scheme = OtpScheme::Dynamic;
    ours.batching = true;
    return {{"Private", priv}, {"Cached", cached}, {"Ours", ours}};
}

/**
 * A workload x configuration matrix normalized to the unsecure
 * system. The constructor queues one seed-averaged cell per
 * (workload, column) on the sweep, workload-major; every accessor
 * reads the cells after Sweep::run().
 */
class Matrix
{
  public:
    /** The per-cell metric a mean or table reads. */
    using Metric = double NormResult::*;

    Matrix(Sweep &sweep, std::vector<Column> columns,
           std::vector<std::string> workloads = workloadNames())
        : sweep_(sweep), columns_(std::move(columns)),
          workloads_(std::move(workloads))
    {
        for (const std::string &wl : workloads_)
            for (const Column &c : columns_)
                handles_.push_back(sweep.addNormalized(wl, c.cfg));
    }

    const std::vector<Column> &columns() const { return columns_; }
    const std::vector<std::string> &workloads() const { return workloads_; }

    const NormResult &
    cell(std::size_t w, std::size_t c) const
    {
        return sweep_.normalized(handles_[w * columns_.size() + c]);
    }

    /** Column @p c's @p metric averaged over the workloads. */
    double
    mean(std::size_t c, Metric metric = &NormResult::time) const
    {
        std::vector<double> v;
        for (std::size_t w = 0; w < workloads_.size(); ++w)
            v.push_back(cell(w, c).*metric);
        return mgsec::mean(v);
    }

    /** A row of @p metric per workload, then the MEAN row. */
    Table
    table(Metric metric = &NormResult::time) const
    {
        std::vector<std::string> header = {"workload"};
        for (const Column &c : columns_)
            header.push_back(c.label);
        Table t(std::move(header));
        for (std::size_t w = 0; w <= workloads_.size(); ++w) {
            const bool last = w == workloads_.size();
            std::vector<std::string> row = {last ? "MEAN"
                                                 : workloads_[w]};
            for (std::size_t c = 0; c < columns_.size(); ++c)
                row.push_back(fmtDouble(last ? mean(c, metric)
                                             : cell(w, c).*metric));
            t.addRow(std::move(row));
        }
        return t;
    }

    /**
     * One row per column: its label under @p corner and its mean
     * time (plus mean traffic when @p with_traffic).
     */
    Table
    meanTable(const std::string &corner, bool with_traffic = false) const
    {
        std::vector<std::string> header = {corner, "norm.time"};
        if (with_traffic)
            header.push_back("norm.traffic");
        Table t(std::move(header));
        for (std::size_t c = 0; c < columns_.size(); ++c) {
            std::vector<std::string> row = {columns_[c].label,
                                            fmtDouble(mean(c))};
            if (with_traffic)
                row.push_back(fmtDouble(mean(c, &NormResult::traffic)));
            t.addRow(std::move(row));
        }
        return t;
    }

    /**
     * Per column and direction, how much OTP latency the pads hid,
     * summed over every workload: hit, partial and miss shares, and
     * hidden = hit + partial.
     */
    Table
    otpTable() const
    {
        Table t({"scheme", "dir", "hit", "partial", "miss", "hidden"});
        for (std::size_t c = 0; c < columns_.size(); ++c) {
            OtpStats agg;
            for (std::size_t w = 0; w < workloads_.size(); ++w)
                agg += cell(w, c).sample.otp;
            for (Direction d : {Direction::Send, Direction::Recv}) {
                const double h = agg.frac(d, OtpOutcome::Hit);
                const double p = agg.frac(d, OtpOutcome::Partial);
                t.addRow({columns_[c].label, directionName(d),
                          fmtPct(h), fmtPct(p),
                          fmtPct(agg.frac(d, OtpOutcome::Miss)),
                          fmtPct(h + p)});
            }
        }
        return t;
    }

  private:
    const Sweep &sweep_;
    std::vector<Column> columns_;
    std::vector<std::string> workloads_;
    std::vector<std::size_t> handles_;
};

} // namespace mgsec::bench

#endif // MGSEC_BENCH_COMMON_HH
