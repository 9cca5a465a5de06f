#include "sim/debug.hh"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <sstream>

namespace mgsec::debug
{

namespace
{

std::vector<DebugFlag *> &
registry()
{
    static std::vector<DebugFlag *> flags;
    return flags;
}

std::ostream *sink = nullptr;
/** Window-kernel workers trace concurrently into the one stream. */
std::mutex sink_mu;

} // anonymous namespace

DebugFlag::DebugFlag(const char *name, const char *desc)
    : name_(name), desc_(desc)
{
    registry().push_back(this);
}

const std::vector<DebugFlag *> &
DebugFlag::all()
{
    return registry();
}

bool
DebugFlag::enableByName(const std::string &names)
{
    bool all_matched = true;
    std::istringstream ss(names);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
        if (tok.empty())
            continue;
        if (tok == "All" || tok == "all") {
            for (DebugFlag *f : registry())
                f->enable();
            continue;
        }
        bool matched = false;
        for (DebugFlag *f : registry()) {
            if (tok == f->name()) {
                f->enable();
                matched = true;
            }
        }
        if (!matched) {
            warn("unknown debug flag '%s'", tok.c_str());
            all_matched = false;
        }
    }
    return all_matched;
}

void
DebugFlag::disableAll()
{
    for (DebugFlag *f : registry())
        f->disable();
}

std::ostream &
stream()
{
    return sink != nullptr ? *sink : std::cerr;
}

void
setStream(std::ostream &os)
{
    sink = &os;
}

void
enableFromEnv()
{
    if (const char *env = std::getenv("MGSEC_DEBUG"))
        DebugFlag::enableByName(env);
}

void
listFlags(std::ostream &os)
{
    os << "debug flags (comma-separated, e.g. --debug "
          "Channel,Batch):\n";
    std::size_t width = 3; // "All"
    for (const DebugFlag *f : DebugFlag::all())
        width = std::max(width, std::string(f->name()).size());
    for (const DebugFlag *f : DebugFlag::all()) {
        os << "  " << f->name()
           << std::string(width - std::string(f->name()).size() + 2,
                          ' ')
           << f->desc() << "\n";
    }
    os << "  All" << std::string(width - 1, ' ')
       << "enable every flag\n";
}

void
print(Tick tick, const std::string &component,
      const std::string &message)
{
    const std::lock_guard<std::mutex> lock(sink_mu);
    stream() << tick << ": " << component << ": " << message << "\n";
}

DebugFlag Channel("Channel", "secure channel send/recv/ACK flow");
DebugFlag PadTable("PadTable", "dynamic OTP quota adjustments");
DebugFlag NodeFlag("Node", "issue engine and page migrations");
DebugFlag Batch("Batch", "metadata batch lifecycle");

} // namespace mgsec::debug
