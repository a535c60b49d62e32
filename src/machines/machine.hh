/**
 * @file
 * The common interface of the three simulated machine characterizations
 * (paper Section 3): the detailed CC-NUMA *target* machine, the *LogP*
 * machine (network abstracted, no caches) and the *LogP+C* machine (LogP
 * network plus an ideal coherent cache abstracting data locality).
 *
 * A Machine is a memory system: the runtime's processors feed it one
 * shared-memory access at a time and receive a timing split back.  Every
 * access is split in two phases, the same for both drivers of the
 * simulator (execution and trace replay):
 *
 *  - probe(): a plain function that completes the accesses needing no
 *    engine time (cache hits, local memory) in place;
 *  - miss(): a coroutine transaction (sim/task.hh) for the rest, which
 *    first synchronizes the caller with the global engine clock through
 *    the MemClient callback and then blocks in simulated time.
 *
 * access() is probe() || miss() for a fiber caller.
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
 * A simulated machine characterization.
 */
class Machine
{
  public:
    virtual ~Machine() = default;

    /**
     * The non-blocking phase of an access: complete it in place when it
     * needs no engine time (cache hit, free ideal upgrade, home-local
     * reference), filling @p t and returning true.  Otherwise return
     * false having changed nothing, and the caller runs miss().
     */
    virtual bool
    probe(MemClient &, mem::Addr, AccessType, AccessTiming &)
    {
        return false;
    }

    /**
     * The blocking phase: the transaction for an access probe()
     * declined.  It co_awaits client.syncToEngine() before blocking; on
     * completion the engine clock is the access completion time and a
     * networked result has networked == true.
     * @throws std::logic_error by default: a machine that overrides
     *         access() alone has no transaction to run.
     */
    virtual sim::Task<AccessTiming> miss(MemClient &client, mem::Addr addr,
                                         AccessType type);

    /**
     * Perform one shared-memory access on behalf of @p client, from
     * inside the client's simulated process: probe() || miss(), whose
     * task has completed on return because every blocking point blocked
     * the process in place.  @p bytes fits one cache block (asserted by
     * the runtime).
     */
    virtual AccessTiming access(MemClient &client, mem::Addr addr,
                                AccessType type, std::uint32_t bytes);

    virtual MachineKind kind() const = 0;

    /**
     * Run the machine's full invariant sweep (coherence state vs
     * directory), if it maintains one.  Called by the runtime at drain
     * and by tests; a violation fails an ABSIM_CHECK.
     */
    virtual void checkInvariants() const {}

    /**
     * Fault-injection hook (fault::Kind::CorruptTransition): corrupt
     * one piece of protocol state deterministically (@p seed picks the
     * target), as a buggy transition would, so the invariant checkers
     * must catch it.  Never called by simulation code — only by the
     * fault injector when a plan is armed.
     *
     * @return true if state was corrupted (false: the machine keeps no
     *         corruptible protocol state).
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
     * system); "none" on machines without that axis.  Stamped into the
     * run profile so overhead attribution stays per-axis.
     */
    /// @{
    virtual const char *netModelName() const { return "none"; }
    virtual const char *memModelName() const { return "none"; }
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
