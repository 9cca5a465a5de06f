/**
 * @file
 * Event domains for the window (conservative-PDES) kernel.
 *
 * A Domain is one shard of the discrete-event kernel: an EventQueue
 * and the id that its trace, profiler and capture lanes key on.
 * Domains never share SimObjects — core/system.cc partitions
 * objects so that the only cross-domain edges are wire hops through
 * the Network, which the parallel kernel turns into captured messages
 * replayed at barrier windows (sim/parallel_kernel.hh).
 *
 * Domain 0 is the host/fabric domain. It wraps an externally owned
 * queue (the system's host queue `eq_`, which the CPU, network and
 * page table are bound to); GPU domains own their queues.
 *
 * The thread-local current() pointer tells code running inside a
 * window which domain's clock it is on — Network::send() uses it to
 * timestamp captured cross-domain messages with the *sender's* local
 * time rather than the host queue's stale clock.
 */

#ifndef MGSEC_SIM_DOMAIN_HH
#define MGSEC_SIM_DOMAIN_HH

#include <memory>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace mgsec
{

class Domain
{
  public:
    /** Wrap an externally owned queue (the host domain). */
    Domain(DomainId id, EventQueue &host_eq);
    /** Own a fresh queue (per-GPU domains). */
    explicit Domain(DomainId id);

    Domain(const Domain &) = delete;
    Domain &operator=(const Domain &) = delete;

    DomainId id() const { return id_; }
    EventQueue &eq() { return *eq_; }
    const EventQueue &eq() const { return *eq_; }

    /**
     * Domain whose window the calling thread is currently executing,
     * or nullptr outside the window kernel (plain event loops,
     * barrier phases).
     */
    static Domain *current();

    /** RAII current()-setter the kernel wraps window execution in. */
    class Scope
    {
      public:
        explicit Scope(Domain &d);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Domain *prev_;
    };

  private:
    DomainId id_;
    std::unique_ptr<EventQueue> owned_; ///< null for the host domain
    EventQueue *eq_;
};

} // namespace mgsec

#endif // MGSEC_SIM_DOMAIN_HH
