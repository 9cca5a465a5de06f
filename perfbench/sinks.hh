/**
 * @file
 * A discard stream for sink output: counts the bytes written and
 * checks, as they stream past, that they form one sealed JSON value
 * (brackets balanced and matched, strings closed, nothing after the
 * closing bracket). Keeps observability output off the disk while
 * still checking it.
 */

#ifndef MGSEC_PERFBENCH_SINKS_HH
#define MGSEC_PERFBENCH_SINKS_HH

#include <cstdint>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

namespace perfbench
{

class JsonShapeBuf : public std::streambuf
{
  public:
    std::uint64_t bytes() const { return bytes_; }
    /**
     * Objects opened directly inside an array that is itself a value
     * of the top-level object — the events of a Chrome trace
     * ({"traceEvents":[{...},{...}]}).
     */
    std::uint64_t nestedArrayObjects() const { return nested_objs_; }
    /** One complete JSON container was written and nothing else. */
    bool sealed() const;

  protected:
    int_type overflow(int_type ch) override;
    std::streamsize xsputn(const char *s, std::streamsize n) override;

  private:
    void feed(char c);

    std::uint64_t bytes_ = 0;
    std::uint64_t nested_objs_ = 0;
    std::vector<char> stack_;
    bool in_string_ = false;
    bool escape_ = false;
    bool started_ = false;
    bool closed_ = false;
    bool bad_ = false;
};

/** An ostream over a JsonShapeBuf. */
class JsonShapeStream : public std::ostream
{
  public:
    JsonShapeStream() : std::ostream(&buf_) {}
    const JsonShapeBuf &shape() const { return buf_; }

  private:
    JsonShapeBuf buf_;
};

} // namespace perfbench

#endif // MGSEC_PERFBENCH_SINKS_HH
