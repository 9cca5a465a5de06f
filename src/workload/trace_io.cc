#include "workload/trace_io.hh"

#include <fstream>
#include <sstream>
#include <string>

#include "sim/logging.hh"

namespace mgsec
{

std::uint64_t
writeTrace(std::ostream &os, OpSource &src)
{
    os << "mgsec-trace v1 " << src.totalOps() << "\n";
    RemoteOp op;
    std::uint64_t n = 0;
    while (src.next(op)) {
        os << op.gap << " " << op.dst << " "
           << (op.write ? 1 : 0) << " " << op.addr << " "
           << (op.migratable ? 1 : 0) << "\n";
        ++n;
    }
    return n;
}

std::uint64_t
recordTrace(const std::string &path, const WorkloadProfile &profile,
            NodeId gpu, std::uint32_t num_nodes, std::uint64_t seed)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot write trace file '%s'", path.c_str());
    TraceSource src(profile, gpu, num_nodes, seed);
    return writeTrace(os, src);
}

TraceFileSource::TraceFileSource(std::istream &is)
{
    parse(is);
}

TraceFileSource::TraceFileSource(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal("cannot read trace file '%s'", path.c_str());
    parse(is);
}

void
TraceFileSource::parse(std::istream &is)
{
    std::string magic, version;
    std::uint64_t count = 0;
    if (!(is >> magic >> version >> count) ||
        magic != "mgsec-trace" || version != "v1") {
        fatal("not an mgsec-trace v1 stream");
    }
    // The header's count is untrusted input: it sizes nothing, and
    // only the final check below believes it.
    RemoteOp op;
    std::uint64_t gap = 0;
    std::uint32_t dst = 0;
    int write = 0, migratable = 0;
    std::uint64_t addr = 0;
    while (is >> gap >> dst >> write >> addr >> migratable) {
        op.gap = gap;
        op.dst = dst;
        op.write = write != 0;
        op.addr = addr;
        op.migratable = migratable != 0;
        ops_.push_back(op);
    }
    if (ops_.size() != count) {
        fatal("trace truncated: header says %llu ops, found %zu",
              static_cast<unsigned long long>(count), ops_.size());
    }
}

bool
TraceFileSource::next(RemoteOp &op)
{
    if (pos_ >= ops_.size())
        return false;
    op = ops_[pos_++];
    return true;
}

} // namespace mgsec
