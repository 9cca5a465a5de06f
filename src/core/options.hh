/**
 * @file
 * Command-line / config-file option handling for the mgsec_run
 * tool (and any embedding application).
 *
 * Options are `--key value` pairs on the command line or `key =
 * value` lines in a config file (`--config FILE`; '#' comments).
 * Command-line settings override file settings.
 */

#ifndef MGSEC_CORE_OPTIONS_HH
#define MGSEC_CORE_OPTIONS_HH

#include <iosfwd>
#include <string>

#include "core/experiment.hh"
#include "core/flags.hh"

namespace mgsec
{

/** Parse a shaping-policy name ("none", "constant-rate", ...). */
bool parseShaping(const std::string &text, ShapingPolicy &out);

struct RunOptions
{
    ExperimentConfig exp;
    std::string workload = "mm";
    /** Also run the unsecure baseline and print normalized numbers. */
    bool baseline = true;
    /** Dump per-component statistics to this file ("-" = stdout). */
    std::string statsOut;
    /** Write the RunResult as JSON to this file ("-" = stdout). */
    std::string jsonOut;
    /** Record each GPU's op stream to <prefix>.gpu<N>.trace. */
    std::string traceRecord;
    /** Replay GPU 1's stream from this trace file. */
    std::string tracePlay;
    /**
     * Bundle every observability sink into one directory using the
     * sweep's naming scheme (METRICS_/TRACE_/STATS_/HIST_/WIRE_/
     * PROF_<confighash>.json plus OBSERVE_INDEX.json). Mutually
     * exclusive with the explicit per-sink path options.
     */
    std::string observeDir;

    /** Why observeDir conflicts with an explicit per-sink path, or
     *  "" when it does not (parse() rejects a conflict). */
    std::string observeConflict() const;

    /**
     * Resolve observeDir into concrete sink paths (after parse(),
     * before running). Rejects conflicting explicit paths and
     * creates the directory.
     * @retval false on conflict or unusable directory (reported to
     *         stderr).
     */
    bool finalizeObservability();

    /**
     * Apply one key=value setting (any flag but --config).
     * @retval false the key is unknown or the value malformed (error
     *         reported to stderr).
     */
    bool set(const std::string &key, const std::string &value);

    /** Load `key = value` lines. @retval false on any bad line. */
    bool loadFile(const std::string &path);

    /**
     * Parse argv. --help prints usage to stdout and exits 0.
     * @retval false on error (reported, with usage, to stderr).
     */
    bool parse(int argc, char **argv);

    static void usage(std::ostream &os);

  private:
    /** The flag table, bound to *this. */
    Flags flags();
};

} // namespace mgsec

#endif // MGSEC_CORE_OPTIONS_HH
