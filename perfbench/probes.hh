/**
 * @file
 * Layer probes: host ns per call of one public function of a layer,
 * fed inputs shaped like the workload that asks for them.
 */

#ifndef MGSEC_PERFBENCH_PROBES_HH
#define MGSEC_PERFBENCH_PROBES_HH

#include <cstdint>
#include <map>
#include <string>

namespace perfbench
{

/** What a workload looks like to the layers the probes exercise. */
struct ProbeShape
{
    /** Pending events the kernel holds (one queue). */
    std::uint32_t eventqDepth = 1024;
    /** Nodes the pad tables and fabrics see (GPUs + CPU). */
    std::uint32_t numNodes = 5;
    /** Working-set pages per peer (WorkloadProfile::pagesPerPeer). */
    std::uint32_t pagesPerPeer = 64;
    std::uint64_t seed = 1;
};

/**
 * Run every probe; returns metric name -> host ns per call
 * (median of several timed batches).
 */
std::map<std::string, double> runProbes(const ProbeShape &shape);

} // namespace perfbench

#endif // MGSEC_PERFBENCH_PROBES_HH
