#include "sim/trace_sink.hh"

#include <charconv>
#include <ostream>
#include <string>

#include "sim/json_writer.hh"

namespace mgsec
{

void
TraceLane::putInt(std::uint64_t v)
{
    char tmp[24];
    const auto r = std::to_chars(tmp, tmp + sizeof tmp, v);
    buf_.append(tmp, r.ptr);
}

void
TraceLane::putReal(double v)
{
    // The bytes of `std::ostream << double` at its default precision.
    char tmp[32];
    const auto r = std::to_chars(tmp, tmp + sizeof tmp, v,
                                 std::chars_format::general, 6);
    buf_.append(tmp, r.ptr);
}

void
TraceLane::prefix(char ph, std::uint32_t tid, const char *cat,
                  const char *name, Tick ts)
{
    ++events_;
    buf_ += ",\n{\"ph\":\"";
    buf_ += ph;
    buf_ += "\",\"pid\":0,\"tid\":";
    putInt(tid);
    buf_ += ",\"cat\":\"";
    buf_ += cat;
    buf_ += "\",\"name\":\"";
    buf_ += name;
    buf_ += "\",\"ts\":";
    putInt(ts);
}

void
TraceLane::complete(std::uint32_t tid, const char *cat,
                    const char *name, Tick start, Tick dur)
{
    prefix('X', tid, cat, name, start);
    buf_ += ",\"dur\":";
    putInt(dur);
    buf_ += '}';
}

void
TraceLane::complete(std::uint32_t tid, const char *cat,
                    const char *name, Tick start, Tick dur,
                    const char *arg_key, std::uint64_t arg_val)
{
    prefix('X', tid, cat, name, start);
    buf_ += ",\"dur\":";
    putInt(dur);
    buf_ += ",\"args\":{\"";
    buf_ += arg_key;
    buf_ += "\":";
    putInt(arg_val);
    buf_ += "}}";
}

void
TraceLane::instant(std::uint32_t tid, const char *cat,
                   const char *name, Tick ts)
{
    prefix('i', tid, cat, name, ts);
    buf_ += ",\"s\":\"t\"}";
}

void
TraceLane::instant(std::uint32_t tid, const char *cat,
                   const char *name, Tick ts, const char *arg_key,
                   double arg_val)
{
    prefix('i', tid, cat, name, ts);
    buf_ += ",\"s\":\"t\",\"args\":{\"";
    buf_ += arg_key;
    buf_ += "\":";
    putReal(arg_val);
    buf_ += "}}";
}

void
TraceLane::counter(std::uint32_t tid, const char *cat,
                   const char *name, Tick ts, double value)
{
    prefix('C', tid, cat, name, ts);
    buf_ += ",\"args\":{\"";
    buf_ += name;
    buf_ += "\":";
    putReal(value);
    buf_ += "}}";
}

void
TraceLane::metadata(std::uint32_t tid, const char *what,
                    const std::string &name)
{
    // Metadata events carry no cat/ts; hand-rolled rather than
    // through prefix() so the viewer does not see bogus fields.
    ++events_;
    buf_ += ",\n{\"ph\":\"M\",\"pid\":0,\"tid\":";
    putInt(tid);
    buf_ += ",\"name\":\"";
    buf_ += what;
    buf_ += "\",\"args\":{\"name\":\"";
    buf_ += JsonWriter::escape(name);
    buf_ += "\"}}";
}

TraceSink::TraceSink(std::ostream &os, std::size_t lanes)
    : os_(os), lanes_(lanes)
{
    os_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
}

TraceSink::~TraceSink()
{
    finish();
}

void
TraceSink::flush()
{
    for (TraceLane &l : lanes_) {
        if (l.events_ == 0)
            continue;
        // The document's first event goes without its comma.
        const std::size_t skip = events_ == 0 ? 1 : 0;
        os_.write(l.buf_.data() + skip,
                  static_cast<std::streamsize>(l.buf_.size() - skip));
        events_ += l.events_;
        l.events_ = 0;
        l.buf_.clear();
    }
}

void
TraceSink::finish()
{
    if (finished_)
        return;
    finished_ = true;
    flush();
    os_ << "\n]}\n";
    os_.flush();
}

} // namespace mgsec
