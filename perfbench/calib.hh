/**
 * @file
 * Machine-speed calibration. The host this benchmark runs on is
 * shared, and its speed drifts by ±20 % over seconds to minutes; every
 * host-time figure moves with it. A fixed, simulator-shaped reference
 * loop (binary-heap event queue, hashed counter updates, scattered
 * reads of a 2 MiB table) lives here in the benchmark and never
 * changes with the library. Timing it every ~100 ms of work gives the
 * machine's current speed, and host times are reported at the
 * reference speed: raw ns × kReferenceNs / measured loop ns.
 */

#ifndef MGSEC_PERFBENCH_CALIB_HH
#define MGSEC_PERFBENCH_CALIB_HH

#include <cstdint>

namespace perfbench
{

class SpeedGauge
{
  public:
    /**
     * Loop time that defines the reference speed: its typical time on
     * the 4-vCPU 2.1 GHz Xeon VM where the benchmark was set up, so
     * scaled figures there read close to raw ones.
     */
    static constexpr double kReferenceNs = 8.0e6;

    /**
     * How much slower than the reference the machine runs now (> 1 =
     * slower). Re-measures when the last measurement is older than
     * the refresh interval; between measurements it is constant.
     */
    double slowdown();

    /** Measurements taken and their summed host time. */
    std::uint64_t samples() const { return samples_; }
    double spentNs() const { return spent_ns_; }

  private:
    double slowdown_ = 1.0;
    std::uint64_t last_ns_ = 0;
    std::uint64_t samples_ = 0;
    double spent_ns_ = 0;
};

} // namespace perfbench

#endif // MGSEC_PERFBENCH_CALIB_HH
