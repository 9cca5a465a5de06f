#include "core/flags.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "sim/debug.hh"

namespace mgsec
{

namespace
{

/** Convert all of @p text with @p conv, then range-check it. */
template <typename T, typename Conv>
bool
parseWith(const std::string &text, T lo, T hi, T &out, Conv conv)
{
    if (text.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    const T v = conv(text.c_str(), &end);
    if (errno != 0 || end != text.c_str() + text.size() ||
        !(v >= lo && v <= hi))
        return false;
    out = v;
    return true;
}

} // anonymous namespace

bool
parseNumber(const std::string &text, double lo, double hi, double &out)
{
    return parseWith(text, lo, hi, out, [](const char *s, char **end) {
        return std::strtod(s, end);
    });
}

bool
parseNumber(const std::string &text, long long lo, long long hi,
            long long &out)
{
    return parseWith(text, lo, hi, out, [](const char *s, char **end) {
        return std::strtoll(s, end, 10);
    });
}

bool
parseNumber(const std::string &text, unsigned long long lo,
            unsigned long long hi, unsigned long long &out)
{
    // strtoull silently wraps negatives; reject them up front.
    return text.find('-') == std::string::npos &&
           parseWith(text, lo, hi, out, [](const char *s, char **end) {
               return std::strtoull(s, end, 10);
           });
}

bool
parseScheme(const std::string &text, OtpScheme &out)
{
    std::string t = text;
    std::transform(t.begin(), t.end(), t.begin(), ::tolower);
    if (t == "unsecure" || t == "none")
        out = OtpScheme::Unsecure;
    else if (t == "private")
        out = OtpScheme::Private;
    else if (t == "shared")
        out = OtpScheme::Shared;
    else if (t == "cached")
        out = OtpScheme::Cached;
    else if (t == "dynamic")
        out = OtpScheme::Dynamic;
    else
        return false;
    return true;
}

Flag
textFlag(std::string name, std::string metavar, std::string help,
         std::string &out)
{
    return {std::move(name), std::move(metavar), std::move(help),
            [&out](const std::string &v) {
                out = v;
                return true;
            }};
}

Flag
switchFlag(std::string name, std::string help, bool &out)
{
    Flag f{std::move(name), "", std::move(help),
           [&out](const std::string &) {
               out = true;
               return true;
           }};
    f.isSwitch = true;
    return f;
}

Flag
scaleFlag(double &out)
{
    std::ostringstream help;
    help << "workload size multiplier (default " << out << ")";
    return numberFlag("scale", "S", help.str(), out, 1e-6, 1e6);
}

Flag
gpusFlag(std::uint32_t &out)
{
    return numberFlag("gpus", "N",
                      "GPUs in the simulated system (default " +
                          std::to_string(out) + ")",
                      out, 1u, 256u);
}

Flag
topologyFlag(TopologyKind &out)
{
    return {"topology", "T",
            std::string("fabric: p2p|nvswitch|hier (default ") +
                topologyKindName(out) + ")",
            [&out](const std::string &v) {
                return parseTopologyKind(v, out);
            }};
}

Flag
simThreadsFlag(std::uint32_t &out)
{
    return numberFlag(
        "sim-threads", "N",
        "event-kernel worker threads per run\n(same results at any N; "
        "default " +
            (out == 0 ? "MGSEC_SIM_THREADS or 1" : std::to_string(out)) +
            ")",
        out, 1u, 256u);
}

Flag
debugFlag()
{
    return Flag{"debug", "FLAGS", "enable trace flags ('help' lists them)",
                [](const std::string &v) {
                    if (v == "help") {
                        debug::listFlags(std::cout);
                        std::exit(0);
                    }
                    return debug::DebugFlag::enableByName(v);
                }}
        .repeat();
}

Flags &
Flags::add(Flag f)
{
    flags_.push_back(std::move(f));
    return *this;
}

Flags &
Flags::positional(Flag::Setter set)
{
    positional_ = std::move(set);
    return *this;
}

Flags &
Flags::check(std::function<std::string()> fn)
{
    checks_.push_back(std::move(fn));
    return *this;
}

const Flag *
Flags::find(const std::string &name) const
{
    for (const Flag &f : flags_) {
        if (f.name == name)
            return &f;
    }
    return nullptr;
}

Flags::Status
Flags::parse(int argc, char **argv) const
{
    auto fail = [](const std::string &msg) {
        std::cerr << msg << "\n";
        return Status::Error;
    };
    std::vector<bool> seen(flags_.size(), false);
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h")
            return Status::Help;
        if (arg.empty() || arg[0] != '-') {
            if (!positional_ || !positional_(arg))
                return fail("unexpected argument '" + arg + "'");
            continue;
        }
        const Flag *f =
            arg.rfind("--", 0) == 0 ? find(arg.substr(2)) : nullptr;
        if (f == nullptr)
            return fail("unknown flag '" + arg + "'");
        const std::size_t idx = f - flags_.data();
        if (seen[idx] && !f->repeatable)
            return fail("flag '" + arg + "' given more than once");
        seen[idx] = true;
        if (!f->isSwitch && i + 1 >= argc)
            return fail("missing value for '" + arg + "'");
        const std::string value = f->isSwitch ? "" : argv[++i];
        if (!f->set(value))
            return fail("bad value '" + value + "' for '" + arg + "'");
    }
    for (const auto &c : checks_) {
        const std::string err = c();
        if (!err.empty())
            return fail(err);
    }
    return Status::Ok;
}

void
Flags::parseOrExit(int argc, char **argv) const
{
    const Status st = parse(argc, argv);
    if (st == Status::Ok)
        return;
    usage(st == Status::Help ? std::cout : std::cerr);
    std::exit(st == Status::Help ? 0 : 2);
}

void
Flags::usage(std::ostream &os) const
{
    // Help starts in this column, or two spaces after a longer
    // "--name METAVAR"; its continuation lines are indented to it.
    constexpr std::size_t kHelpCol = 25;
    os << head_;
    for (const Flag &f : flags_) {
        if (f.hidden)
            continue;
        std::string left = "  --" + f.name;
        if (!f.isSwitch)
            left += " " + f.metavar;
        left.resize(std::max(left.size() + 2, kHelpCol), ' ');
        os << left;
        for (char c : f.help) {
            os << c;
            if (c == '\n')
                os << std::string(kHelpCol, ' ');
        }
        os << "\n";
    }
}

} // namespace mgsec
