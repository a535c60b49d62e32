/**
 * @file
 * The common interface of the three simulated machine characterizations
 * (paper Section 3): the detailed CC-NUMA *target* machine, the *LogP*
 * machine (network abstracted, no caches) and the *LogP+C* machine (LogP
 * network plus an ideal coherent cache abstracting data locality).
 *
 * A Machine is a memory system: the runtime's processors feed it one
 * shared-memory access at a time and receive a timing split back.  The
 * simulator builds every machine as a ComposedMachine of one network
 * model and one memory model (machines/composed_machine.hh), which
 * splits each access into a probe() and a miss() phase; Machine itself
 * is only the interface the runtime drives, kept abstract so that a
 * wrapper (perfbench's TimedMachine, which times the accesses it
 * forwards) can stand in for one.
 */

#ifndef ABSIM_MACHINES_MACHINE_HH
#define ABSIM_MACHINES_MACHINE_HH

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "mem/addr.hh"
#include "net/topology.hh"
#include "sim/task.hh"
#include "sim/types.hh"

namespace absim::mach {

/**
 * Which machine characterization (Section 3 of the paper, plus the two
 * quadrants of the network x locality grid the paper does not build).
 *
 * Every shared-memory machine is a composition of one *network model*
 * (the detailed circuit-switched interconnect, or LogP's L/o/g
 * abstraction) with one *memory model* (Berkeley directory caches, the
 * ideal coherent cache, or uncached home-node memory) — see
 * machines/registry.hh for the composition table.
 */
enum class MachineKind
{
    Target,   ///< Detailed network + Berkeley directory caches.
    LogP,     ///< LogP network, no caches.
    LogPC,    ///< LogP network + ideal coherent cache.
    TargetIC, ///< Detailed network + ideal coherent cache.
    LogPDir,  ///< LogP network + real directory caches.
};

std::string toString(MachineKind kind);

/** Kind of shared-memory access. */
enum class AccessType : std::uint8_t
{
    Read,
    Write,
    /** Atomic read-modify-write (test&set, fetch&add). Write semantics. */
    Rmw,
};

/** Cost of one processor cycle spent hitting in the cache. */
inline constexpr sim::Duration kCacheHitNs = sim::kCycleNs;

/** Cost of a reference satisfied by the node's local memory (5 cycles). */
inline constexpr sim::Duration kLocalMemNs = 5 * sim::kCycleNs;

/** Control message payload (requests, invalidations, acks, grants). */
inline constexpr std::uint32_t kCtrlBytes = 8;

/** Data message payload: one cache block. */
inline constexpr std::uint32_t kDataBytes = mem::kBlockBytes;

/**
 * Tunable hardware parameters of the cached machines.  Defaults are the
 * paper's Section 5 configuration; the cache-size ablation bench sweeps
 * them (cf. the paper's citation of Rothberg/Singh/Gupta on working-set
 * sizes).
 */
struct CacheConfig
{
    std::uint32_t bytes = 64 * 1024;
    std::uint32_t ways = 2;
};

/**
 * Which invalidation protocol the target machine runs.  The paper
 * simulates Berkeley; the MSI alternative exists to test its claim that
 * LogP+C models "the minimum number of network messages that any
 * coherence protocol may hope to achieve" (Section 3.2) and the cited
 * Wood et al. observation that performance is not very sensitive to the
 * protocol choice.
 */
enum class ProtocolKind
{
    /** Ownership-based: dirty data supplied cache-to-cache, memory
     *  stays stale (SharedDirty state). */
    Berkeley,
    /** Plain MSI: a read miss forces the dirty owner to write back to
     *  the home, which then supplies the data; no owned-shared state. */
    Msi,
};

/** Each ProtocolKind's name, indexed by enumerator: what toString()
 *  prints and what the run settings parse. */
inline constexpr std::array<std::string_view, 2> kProtocolNames = {
    "berkeley", "msi"};

/** The protocol's name from kProtocolNames. */
std::string toString(ProtocolKind kind);

/**
 * The calling processor, as seen by a machine: its private clock and the
 * ability to synchronize that clock with the global engine before the
 * machine performs blocking (network) operations.
 */
class MemClient
{
  public:
    virtual ~MemClient() = default;

    /** The caller's node. */
    net::NodeId node() const { return node_; }

    /** The caller's local clock (may run ahead of the engine). */
    virtual sim::Tick localTime() const = 0;

    /**
     * Awaitable: wait until the engine clock catches up with
     * localTime().  A miss transaction must co_await it exactly once,
     * before its first blocking operation.
     */
    virtual sim::Delay syncToEngine() = 0;

  protected:
    explicit MemClient(net::NodeId node) : node_(node) {}

  private:
    net::NodeId node_;
};

/** Timing split of one access, in ticks. */
struct AccessTiming
{
    /** Local (cache / memory) cost, charged to the busy/ideal bucket. */
    sim::Duration busy = 0;

    /** Contention-free message transmission time (SPASM latency). */
    sim::Duration latency = 0;

    /** Time spent waiting for links / g-gates (SPASM contention). */
    sim::Duration contention = 0;

    /** True if the access used the network (the caller's clock was
     * re-synchronized to the engine). */
    bool networked = false;
};

/** Counters every machine maintains (not all apply to all machines). */
struct MachineStats
{
    std::uint64_t accesses = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t localMem = 0;       ///< Satisfied by local memory.
    std::uint64_t networkAccesses = 0;///< Accesses that used the network.
    std::uint64_t messages = 0;       ///< Network messages, incl. protocol.
    std::uint64_t readMisses = 0;
    std::uint64_t writeMisses = 0;
    std::uint64_t upgrades = 0;
    std::uint64_t invalidations = 0;  ///< Invalidation messages sent.
    std::uint64_t writebacks = 0;

    /** Total local (cache / memory) time the memory model charged, in
     *  ticks — the locality axis of the per-axis overhead attribution
     *  (the network axis is the profile's latency + contention). */
    sim::Duration memTime = 0;
};

/**
 * A simulated machine characterization: what the runtime's processors
 * and the run profile see of it.
 */
class Machine
{
  public:
    virtual ~Machine() = default;

    /**
     * Perform one shared-memory access on behalf of @p client, from
     * inside the client's simulated process; every blocking point
     * blocks the process in place, so the access has completed on
     * return.  @p bytes fits one cache block (asserted by the runtime).
     */
    virtual AccessTiming access(MemClient &client, mem::Addr addr,
                                AccessType type, std::uint32_t bytes) = 0;

    virtual MachineKind kind() const = 0;

    /**
     * Run the machine's full invariant sweep (coherence state vs
     * directory), if it maintains one.  Called by the runtime at drain
     * and by tests; a violation fails an ABSIM_CHECK.
     */
    virtual void checkInvariants() const = 0;

    /**
     * Fault-injection hook (fault::Kind::CorruptTransition): corrupt
     * one piece of protocol state deterministically (@p seed picks the
     * target), as a buggy transition would, so the invariant checkers
     * must catch it.  Never called by simulation code — only by the
     * fault injector when a plan is armed.
     *
     * @return true if state was corrupted (false: the machine keeps no
     *         corruptible protocol state, as a wrapper does not).
     */
    virtual bool corruptStateForFault(std::uint64_t seed)
    {
        (void)seed;
        return false;
    }

    /**
     * @name Per-axis identity.
     * Which model implements each abstraction axis ("detailed"/"logp"
     * for the network, "directory"/"ideal"/"uncached" for the memory
     * system).  Stamped into the run profile so overhead attribution
     * stays per-axis.
     */
    /// @{
    virtual const char *netModelName() const = 0;
    virtual const char *memModelName() const = 0;
    /// @}

    const MachineStats &stats() const { return stats_; }

    std::uint32_t nodes() const { return nodes_; }

  protected:
    Machine(std::uint32_t nodes, const mem::HomeMap &homes)
        : nodes_(nodes), homes_(homes)
    {
    }

    std::uint32_t nodes_;
    const mem::HomeMap &homes_;
    MachineStats stats_;
};

} // namespace absim::mach

#endif // ABSIM_MACHINES_MACHINE_HH
