/**
 * @file
 * One table-driven command-line parser for every mgsec binary: each
 * flag is one Flag entry (name, metavar, help, setter), and the same
 * Flags table parses argv and prints usage. Parsing is strict: an
 * unknown flag, a missing value, a repeated non-repeatable flag or a
 * value the setter rejects is an error.
 */

#ifndef MGSEC_CORE_FLAGS_HH
#define MGSEC_CORE_FLAGS_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <type_traits>
#include <vector>

#include "net/topology.hh"
#include "secure/pad_table.hh"

namespace mgsec
{

/** Strict numeric parsing: all of @p text must convert (no trailing
 *  junk, not empty) to a value in [lo, hi]; else @p out is untouched. */
bool parseNumber(const std::string &text, double lo, double hi,
                 double &out);
bool parseNumber(const std::string &text, long long lo, long long hi,
                 long long &out);
bool parseNumber(const std::string &text, unsigned long long lo,
                 unsigned long long hi, unsigned long long &out);

/** Parse a scheme name ("private", "Dynamic", "none", ...). */
bool parseScheme(const std::string &text, OtpScheme &out);

/** One command-line flag. */
struct Flag
{
    /** Applies a value; false rejects it as malformed. */
    using Setter = std::function<bool(const std::string &)>;

    std::string name;    ///< without the leading "--"
    std::string metavar; ///< value placeholder shown in usage
    std::string help;    ///< usage text; '\n' starts a new line
    Setter set;
    bool isSwitch = false;   ///< takes no value; set("") is called
    bool repeatable = false; ///< may be given more than once
    bool hidden = false;     ///< accepted but left out of usage

    Flag &repeat() { repeatable = true; return *this; }
    Flag &hide() { hidden = true; return *this; }
};

/** A flag whose value is a number in [lo, hi] stored into @p out. */
template <typename T>
Flag
numberFlag(std::string name, std::string metavar, std::string help,
           T &out, std::type_identity_t<T> lo,
           std::type_identity_t<T> hi)
{
    // Parse through the parseNumber overload of T's kind.
    using Wide = std::conditional_t<
        std::is_floating_point_v<T>, double,
        std::conditional_t<std::is_signed_v<T>, long long,
                           unsigned long long>>;
    return {std::move(name), std::move(metavar), std::move(help),
            [&out, lo, hi](const std::string &v) {
                Wide w{};
                if (!parseNumber(v, Wide(lo), Wide(hi), w))
                    return false;
                out = static_cast<T>(w);
                return true;
            }};
}

/** A flag whose value is stored verbatim into @p out. */
Flag textFlag(std::string name, std::string metavar, std::string help,
              std::string &out);

/** A switch (no value) that sets @p out to true. */
Flag switchFlag(std::string name, std::string help, bool &out);

/**
 * @name Flags shared by several binaries
 * Declared once here; the help text quotes the bound variable's
 * current value as the default.
 */
/// @{
Flag scaleFlag(double &out);
Flag gpusFlag(std::uint32_t &out);
Flag topologyFlag(TopologyKind &out);
Flag simThreadsFlag(std::uint32_t &out);
/** Repeatable; `--debug help` lists the trace flags and exits 0. */
Flag debugFlag();
/// @}

/** A binary's flag table. */
class Flags
{
  public:
    enum class Status { Ok, Help, Error };

    /** @param head usage text printed before the flag list. */
    explicit Flags(std::string head) : head_(std::move(head)) {}

    Flags &add(Flag f);
    /** Hand bare (non-dash) arguments to @p set; else they fail. */
    Flags &positional(Flag::Setter set);
    /** A constraint across flags, checked once argv is applied: a
     *  non-empty message fails the parse like a bad value. */
    Flags &check(std::function<std::string()> fn);

    /** The flag named @p name (no leading "--"), or nullptr. */
    const Flag *find(const std::string &name) const;

    /** Apply argv[1..argc) in order, stopping at --help/-h (Help) or
     *  at the first error (Error, reported to stderr). */
    Status parse(int argc, char **argv) const;

    /** The contract every binary shares: --help prints usage to
     *  stdout and exits 0; an error prints usage to stderr, exits 2. */
    void parseOrExit(int argc, char **argv) const;

    void usage(std::ostream &os) const;

  private:
    std::string head_;
    std::vector<Flag> flags_;
    Flag::Setter positional_;
    std::vector<std::function<std::string()>> checks_;
};

} // namespace mgsec

#endif // MGSEC_CORE_FLAGS_HH
