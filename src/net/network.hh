/**
 * @file
 * Detailed circuit-switched interconnect simulation.
 *
 * Models the detailed network axis per Section 5 of the paper: serial
 * unidirectional links at 20 MB/s, circuit-switched wormhole transfer,
 * negligible switching delay.  A message incrementally reserves every link
 * on its dimension-ordered route (incremental acquisition + dimension
 * order = deadlock-free), holds the whole circuit for the transmission
 * time, and releases.  Time spent waiting for links is the message's
 * contention; the transmission time itself is its latency — precisely the
 * SPASM overhead split the paper relies on.
 *
 * Machine compositions and message-passing programs reach this network
 * through mach::DetailedNetModel (the "detailed" rows of the registry
 * grid: target, target+ic); see docs/MACHINES.md.
 */

#ifndef ABSIM_NET_NETWORK_HH
#define ABSIM_NET_NETWORK_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/topology.hh"
#include "sim/event_queue.hh"
#include "sim/resource.hh"
#include "sim/task.hh"
#include "sim/types.hh"

namespace absim::net {

/** Per-transfer timing split, in ticks. */
struct TransferResult
{
    sim::Duration latency = 0;    ///< Contention-free transmission time.
    sim::Duration contention = 0; ///< Time spent waiting for links.
};

/** Aggregate network statistics. */
struct NetworkStats
{
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
    sim::Duration latency = 0;
    sim::Duration contention = 0;
};

/**
 * The detailed interconnect (the target machine's network axis).
 *
 * send() is the one implementation: a coroutine (sim/task.hh) that
 * waits in simulated time for the full circuit set-up, transmission,
 * and tear-down.  A fiber caller blocks on it with send(...).get().
 */
class DetailedNetwork
{
  public:
    /** Link bandwidth: 20 MB/s serial links => 50 ns per byte. */
    static constexpr sim::Duration kNsPerByte = 50;

    DetailedNetwork(sim::EventQueue &eq, std::unique_ptr<Topology> topo);

    DetailedNetwork(const DetailedNetwork &) = delete;
    DetailedNetwork &operator=(const DetailedNetwork &) = delete;

    /**
     * Send @p bytes from @p src to @p dst as a task; with a non-zero
     * @p reply_bytes a reply of that size then travels back in the same
     * frame (a request/reply round trip).  Each leg is one message; the
     * result sums the legs.
     */
    sim::Task<TransferResult> send(NodeId src, NodeId dst,
                                   std::uint32_t bytes,
                                   std::uint32_t reply_bytes = 0);

    /** Contention-free transmission time for a message of @p bytes. */
    static sim::Duration
    transmissionTime(std::uint32_t bytes)
    {
        return bytes * kNsPerByte;
    }

    const Topology &topology() const { return *topo_; }
    const NetworkStats &stats() const { return stats_; }

  private:
    /** Longest minimal route any topology produces: an 8x8 mesh's
     *  opposite corners (14 links), rounded up to a power of two. */
    static constexpr std::size_t kMaxRoute = 16;

    using Route = std::array<LinkId, kMaxRoute>;

    /** Route @p src -> @p dst into @p path, returning its length.  The
     *  scratch vector keeps Topology::route's interface without an
     *  allocation per message; the copy lands in the caller's frame
     *  before any suspension, so interleaved sends cannot clobber it. */
    std::size_t routeInto(NodeId src, NodeId dst, Route &path);

    sim::EventQueue &eq_;
    std::unique_ptr<Topology> topo_;
    std::unique_ptr<sim::FifoMutex[]> links_;
    std::vector<LinkId> routeScratch_;
    NetworkStats stats_;
};

} // namespace absim::net

#endif // ABSIM_NET_NETWORK_HH
