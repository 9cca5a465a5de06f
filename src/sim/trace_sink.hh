/**
 * @file
 * Chrome trace_event sink for simulation timelines.
 *
 * Emits the JSON Array Format understood by chrome://tracing and
 * Perfetto: one process (pid 0) whose threads are the simulated
 * nodes, with simulated cycles mapped 1:1 onto microseconds.
 *
 * The sink owns one in-memory lane per event domain. Components
 * reach their domain's lane through EventQueue::traceLane(); a null
 * pointer there is the entire cost of disabled tracing, so the
 * zero-allocation hot-path guarantee is preserved when no sink is
 * attached. A lane is written only by the thread running its domain,
 * and flush() — called by the window kernel's coordinator at every
 * barrier, with every domain quiesced — writes the lanes to the
 * stream in domain order, so the file is the same bytes at any
 * worker count.
 *
 * Event vocabulary (category / name):
 *  - "packet"  complete: one span per delivered data packet, from
 *              injection at the sender to readiness at the receiver.
 *  - "net"     complete: wire occupancy of each hop (serialization
 *              plus link latency), with a bytes argument.
 *  - "pad"     complete "sendWait"/"recvWait": cycles a packet
 *              stalled waiting for pad material; instant
 *              "sendMiss"/"recvMiss": pad-buffer misses.
 *  - "ewma"    counter "S": Dynamic send-weight after each EWMA
 *              update; instant "repartition": an actual quota move.
 *  - "batch"   instant "close" (batch reached its declared size) and
 *              "flush" (idle-timeout or drain trailer).
 *  - "replay"  instant "overflow": replay-window span exceeded.
 *  - "memprot" complete "walk": host integrity-tree walk latency.
 *  - "attr"    complete: one span per nonzero lifecycle stage of a
 *              delivered message (padClaim/padWait/xmit/wire/
 *              recvVerify), emitted when latency attribution is on.
 */

#ifndef MGSEC_SIM_TRACE_SINK_HH
#define MGSEC_SIM_TRACE_SINK_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace mgsec
{

/**
 * One domain's buffered trace events. Each event is formatted
 * straight into the lane's string, prefixed with ",\n" so lanes
 * concatenate into the sink's traceEvents array. Cache-line aligned:
 * neighbouring lanes are written by different worker threads.
 */
class alignas(64) TraceLane
{
  public:
    /** Duration ("X") event: [start, start + dur) on thread tid. */
    void complete(std::uint32_t tid, const char *cat, const char *name,
                  Tick start, Tick dur);
    /** Duration event with one integer argument. */
    void complete(std::uint32_t tid, const char *cat, const char *name,
                  Tick start, Tick dur, const char *arg_key,
                  std::uint64_t arg_val);

    /** Thread-scoped instant ("i") event. */
    void instant(std::uint32_t tid, const char *cat, const char *name,
                 Tick ts);
    /** Instant event with one numeric argument. */
    void instant(std::uint32_t tid, const char *cat, const char *name,
                 Tick ts, const char *arg_key, double arg_val);

    /** Counter ("C") event: plots a per-thread series over time. */
    void counter(std::uint32_t tid, const char *cat, const char *name,
                 Tick ts, double value);

    /**
     * Metadata ("M") event naming a lane: @p what is
     * "process_name" or "thread_name", @p name the label shown by
     * about:tracing / Perfetto instead of the bare pid/tid.
     */
    void metadata(std::uint32_t tid, const char *what,
                  const std::string &name);

  private:
    friend class TraceSink;

    /** Common prefix up to (but not including) the closing brace. */
    void prefix(char ph, std::uint32_t tid, const char *cat,
                const char *name, Tick ts);
    /** Integers as std::to_chars, doubles as printf "%g". */
    void putInt(std::uint64_t v);
    void putReal(double v);

    std::string buf_;
    std::uint64_t events_ = 0;
};

/** Chrome trace_event writer (JSON Array Format) over domain lanes. */
class TraceSink
{
  public:
    /**
     * Write the document header to @p os and open @p lanes empty
     * lanes. The stream must outlive the sink; finish() seals it.
     */
    TraceSink(std::ostream &os, std::size_t lanes);
    ~TraceSink();

    TraceSink(const TraceSink &) = delete;
    TraceSink &operator=(const TraceSink &) = delete;

    TraceLane &lane(std::size_t d) { return lanes_[d]; }

    /**
     * Write every lane's events to the stream, lanes in order, and
     * empty them (they keep their capacity). No lane's writer may be
     * running.
     */
    void flush();

    /** flush() and close the traceEvents array; idempotent. */
    void finish();

    /** Events written to the stream so far. */
    std::uint64_t events() const { return events_; }

  private:
    std::ostream &os_;
    std::vector<TraceLane> lanes_;
    std::uint64_t events_ = 0;
    bool finished_ = false;
};

} // namespace mgsec

#endif // MGSEC_SIM_TRACE_SINK_HH
