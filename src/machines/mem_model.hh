/**
 * @file
 * The locality axis of a machine characterization.
 *
 * A MemModel decides what a shared-memory access costs locally (cache
 * hit, local memory) and which messages it must send, charging the
 * transport to whatever NetModel it was composed with.  Three models
 * exist:
 *
 *  - DirectoryMem (directory_mem.hh): per-node set-associative caches
 *    kept coherent by a blocking-home invalidation directory protocol
 *    (Berkeley or MSI) — every protocol message is charged.
 *  - IdealCacheMem (ideal_mem.hh): the same cache geometry with *free*
 *    coherence maintenance — only true data communication is charged
 *    (the paper's ideal coherent cache).
 *  - UncachedMem (below): no caches; every non-home reference is one
 *    request/reply round trip (the plain LogP machine's memory system).
 *
 * Every model implements an access in two phases: a probe() plain
 * function for what completes without engine time, and a
 * miss() coroutine transaction for the rest, which co_awaits
 * MemClient::syncToEngine() exactly once before its first blocking
 * network operation.  Execution and trace replay run these same two
 * functions (docs/MACHINES.md).  Models mutate the MachineStats of the
 * composition they belong to, including memTime for both phases.
 */

#ifndef ABSIM_MACHINES_MEM_MODEL_HH
#define ABSIM_MACHINES_MEM_MODEL_HH

#include <coroutine>
#include <utility>

#include "machines/machine.hh"
#include "machines/net_model.hh"

namespace absim::mach {

class MemModel
{
  public:
    virtual ~MemModel() = default;

    /** Axis identity: "directory", "ideal" or "uncached". */
    virtual const char *name() const = 0;

    /**
     * The non-blocking phase of an access: complete it in place when it
     * needs no engine time (cache hit, free ideal upgrade, home-local
     * reference), filling @p t and returning true.  Otherwise return
     * false having changed nothing, and the caller runs miss().
     */
    virtual bool probe(MemClient &client, mem::Addr addr, AccessType type,
                       AccessTiming &t) = 0;

    /**
     * The blocking phase: the transaction for an access probe()
     * declined.  It co_awaits client.syncToEngine() before blocking; on
     * completion the engine clock is the access completion time and a
     * networked result has networked == true.
     */
    virtual sim::Task<AccessTiming> miss(MemClient &client, mem::Addr addr,
                                         AccessType type) = 0;

    /** Full invariant sweep, if the model maintains protocol state. */
    virtual void checkInvariants() const {}

    /** Fault hook (Machine::corruptStateForFault semantics). */
    virtual bool
    corruptStateForFault(std::uint64_t seed)
    {
        (void)seed;
        return false;
    }

  protected:
    MemModel(NetModel &net, std::uint32_t nodes, const mem::HomeMap &homes,
             MachineStats &stats)
        : net_(net), nodes_(nodes), homes_(homes), stats_(stats)
    {
    }

    /** co_await charge(wait, t): a network wait whose latency and
     *  contention are added to @p t and its messages to the stats. */
    struct [[nodiscard]] Charged
    {
        NetWait wait;
        AccessTiming &t;
        MachineStats &stats;

        bool await_ready() { return wait.await_ready(); }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            wait.await_suspend(h);
        }

        void
        await_resume()
        {
            const NetTiming r = wait.await_resume();
            t.latency += r.latency;
            t.contention += r.contention;
            stats.messages += r.messages;
        }
    };

    Charged
    charge(NetWait wait, AccessTiming &t)
    {
        return Charged{std::move(wait), t, stats_};
    }

    NetModel &net_;
    std::uint32_t nodes_;
    const mem::HomeMap &homes_;
    MachineStats &stats_;
};

/**
 * No caches: each node owns a slice of the shared memory, every
 * reference to another node's slice is a request/reply round trip
 * (paper Section 3.1, as on the BBN Butterfly GP-1000).
 */
class UncachedMem : public MemModel
{
  public:
    UncachedMem(NetModel &net, std::uint32_t nodes,
                const mem::HomeMap &homes, MachineStats &stats)
        : MemModel(net, nodes, homes, stats)
    {
    }

    const char *name() const override { return "uncached"; }

    /** Home-local references. */
    bool probe(MemClient &client, mem::Addr addr, AccessType type,
               AccessTiming &t) override;

    /** Remote references: one request/reply round trip. */
    sim::Task<AccessTiming> miss(MemClient &client, mem::Addr addr,
                                 AccessType type) override;
};

} // namespace absim::mach

#endif // ABSIM_MACHINES_MEM_MODEL_HH
