/**
 * @file
 * Per-node g-gates for the LogP machines.
 *
 * The LogP model requires at least g time units between consecutive
 * network operations at a node; the paper implements this as a delay at
 * the sending and at the receiving node (Section 3.1), and the delays are
 * what the LogP machines report as *contention* overhead.
 *
 * Section 7 observes that gating sends and receives against each other
 * ("the model definition precludes even simultaneous sends and receives
 * from a given node") is a large source of pessimism, and experiments with
 * applying the gap only between identical communication events.  Both
 * policies are implemented here; the ablation bench compares them.
 */

#ifndef ABSIM_LOGP_GATE_HH
#define ABSIM_LOGP_GATE_HH

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/topology.hh"
#include "sim/types.hh"

namespace absim::logp {

/** How the g-gap is enforced at a node. */
enum class GapPolicy
{
    /** One gate per node: any two network events are >= g apart. */
    Single,
    /**
     * Separate send/receive gates: only identical event kinds are gated
     * against each other (the Section 7 experiment).
     */
    PerDirection,
    /**
     * Gate only messages that actually cross the network bisection
     * (one gate per node, but locality-respecting).  This implements
     * Section 7's suggestion of incorporating the application's
     * communication locality into the use of g: since g is derived from
     * bisection bandwidth, traffic that never crosses the bisection
     * should not consume it.  Extension beyond the paper.
     */
    BisectionOnly,
};

/** Each GapPolicy's name, indexed by enumerator: what toString()
 *  prints and what the run settings parse. */
inline constexpr std::array<std::string_view, 3> kGapPolicyNames = {
    "single", "per-direction", "bisection"};

/** The policy's name from kGapPolicyNames. */
std::string toString(GapPolicy policy);

/** Outcome of reserving a gate. */
struct Reservation
{
    sim::Tick when;        ///< Granted slot.
    sim::Duration waited;  ///< when - earliest (the contention charge).
};

/**
 * The g-gates of all nodes of a LogP machine.
 *
 * Reservations may be made "into the future": a message arriving at tick t
 * reserves the receiving node's gate at >= t even if the engine clock is
 * behind, so concurrent requesters observe each other's bandwidth
 * consumption in FIFO order of reservation.
 */
class GateSet
{
  public:
    GateSet(std::uint32_t nodes, sim::Duration g, GapPolicy policy);

    /** Reserve a send slot at node @p n, no earlier than @p earliest. */
    Reservation reserveSend(net::NodeId n, sim::Tick earliest);

    /** Reserve a receive slot at node @p n, no earlier than @p earliest. */
    Reservation reserveRecv(net::NodeId n, sim::Tick earliest);

    sim::Duration gap() const { return g_; }
    GapPolicy policy() const { return policy_; }

  private:
    struct NodeGate
    {
        // Single policy uses only `any`; PerDirection uses send/recv.
        sim::Tick any = 0;
        sim::Tick send = 0;
        sim::Tick recv = 0;
        bool used = false;     ///< First reservation is never gated.
        bool usedSend = false;
        bool usedRecv = false;
    };

    Reservation reserve(sim::Tick &last, bool &used, sim::Tick earliest);

    sim::Duration g_;
    GapPolicy policy_;
    std::vector<NodeGate> gates_;
};

} // namespace absim::logp

#endif // ABSIM_LOGP_GATE_HH
