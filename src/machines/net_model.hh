/**
 * @file
 * The network axis of a machine characterization.
 *
 * A NetModel is the transport a memory model charges its messages to:
 * either the detailed circuit-switched interconnect (net::DetailedNetwork,
 * with per-link contention) or the LogP abstraction (logp::LogPNetwork,
 * with L latency and g-gate contention).  Memory models are written
 * against this interface only, so any memory system composes with any
 * network — the independent-axes variation at the heart of the paper.
 *
 * The same two models time the messages of a message-passing program
 * (msg::MsgWorld) through send(), so both programming paradigms run on
 * one network axis.
 *
 * Every memory-model operation returns a NetWait to co_await: it blocks
 * until the transfer completes in simulated time (see sim/task.hh for
 * how that serves a fiber and a coroutine caller alike).  The caller
 * must have synchronized its local clock with the engine
 * (MemClient::syncToEngine) first.
 */

#ifndef ABSIM_MACHINES_NET_MODEL_HH
#define ABSIM_MACHINES_NET_MODEL_HH

#include <coroutine>
#include <cstdint>
#include <memory>

#include "logp/logp_net.hh"
#include "machines/machine.hh"
#include "net/network.hh"
#include "sim/event_queue.hh"
#include "sim/resource.hh"
#include "sim/task.hh"

namespace absim::mach {

/** Timing split of one network operation, in ticks. */
struct NetTiming
{
    sim::Duration latency = 0;    ///< Contention-free transmission time.
    sim::Duration contention = 0; ///< Link waits / g-gate waits.
    std::uint32_t messages = 0;   ///< Messages this operation injected.
};

/**
 * A network operation in flight; co_await it for its NetTiming.  LogP
 * prices an operation up front and only waits for the delivery tick;
 * the detailed network runs a circuit task.  Neither costs a coroutine
 * frame beyond the circuit's own.  A default NetWait is already
 * complete and carries nothing (a hop that stays inside a node).
 */
class [[nodiscard]] NetWait
{
  public:
    NetWait() = default;

    /** Priced: block until @p until, then report @p timing. */
    NetWait(sim::EventQueue &eq, sim::Tick until, const NetTiming &timing)
        : eq_(&eq), until_(until), timing_(timing)
    {
    }

    /** A running circuit task that injects @p messages messages. */
    NetWait(sim::Task<net::TransferResult> circuit, std::uint32_t messages)
        : circuit_(std::move(circuit))
    {
        timing_.messages = messages;
    }

    bool
    await_ready()
    {
        if (circuit_)
            return circuit_.await_ready();
        return eq_ == nullptr || sim::Delay{*eq_, until_}.await_ready();
    }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        if (circuit_)
            circuit_.await_suspend(h);
        else
            sim::Delay{*eq_, until_}.await_suspend(h);
    }

    NetTiming
    await_resume()
    {
        if (circuit_) {
            const net::TransferResult r = circuit_.await_resume();
            timing_.latency = r.latency;
            timing_.contention = r.contention;
        }
        return timing_;
    }

  private:
    sim::EventQueue *eq_ = nullptr;
    sim::Tick until_ = 0;
    sim::Task<net::TransferResult> circuit_; ///< Empty when priced.
    NetTiming timing_;
};

/**
 * Timing of one message-passing message, split into the sender's view
 * (when its processor is free again and what it waited for) and the
 * message's view (when the payload reaches the receiver and what a
 * blocked receiver should be charged).
 */
struct SendTiming
{
    sim::Tick senderFreeAt = 0;     ///< Sender may continue here.
    sim::Tick deliveredAt = 0;      ///< Payload available at receiver.
    sim::Duration senderLatency = 0;
    sim::Duration senderContention = 0;
    sim::Duration msgLatency = 0;   ///< Chargeable to a blocked receiver.
    sim::Duration msgContention = 0;
};

class NetModel
{
  public:
    virtual ~NetModel() = default;

    /** Axis identity: "detailed" or "logp". */
    virtual const char *name() const = 0;

    /** One message from @p src to @p dst, complete at delivery. */
    virtual NetWait transfer(net::NodeId src, net::NodeId dst,
                             std::uint32_t bytes) = 0;

    /**
     * A request/reply round trip (control request out, @p reply_bytes
     * back), complete when the reply is delivered — the shape of every
     * remote memory reference.
     */
    virtual NetWait roundTrip(net::NodeId src, net::NodeId dst,
                              std::uint32_t reply_bytes) = 0;

    /**
     * Parallel invalidation/ack round trips (control-sized both ways)
     * from @p center to every node set in the bit mask @p targets
     * (bit n = node n, mem::kMaxNodes wide), visited in ascending node
     * order; complete when the slowest trip does.  The result
     * partitions the elapsed wait exactly: latency is the critical
     * (last-delivered) trip's contention-free time, contention is the
     * remainder.
     *
     * @pre targets != 0 and the bit of @p center is clear
     */
    virtual NetWait fanOutRoundTrips(net::NodeId center,
                                     std::uint64_t targets) = 0;

    /**
     * One message-passing message of @p bytes from @p src to @p dst.
     * Called from inside the sending processor's simulated process, it
     * blocks that process until SendTiming::senderFreeAt: the detailed
     * network holds the sender for the whole circuit transfer, LogP
     * only until its send slot (L and the receive gate are the
     * message's, charged to a blocked receiver).
     */
    virtual SendTiming send(net::NodeId src, net::NodeId dst,
                            std::uint32_t bytes) = 0;
};

/** The detailed circuit-switched interconnect (paper Section 5). */
class DetailedNetModel : public NetModel
{
  public:
    DetailedNetModel(sim::EventQueue &eq, net::TopologyKind topo,
                     std::uint32_t nodes);

    const char *name() const override { return "detailed"; }

    NetWait transfer(net::NodeId src, net::NodeId dst,
                     std::uint32_t bytes) override;
    NetWait roundTrip(net::NodeId src, net::NodeId dst,
                      std::uint32_t reply_bytes) override;
    NetWait fanOutRoundTrips(net::NodeId center,
                             std::uint64_t targets) override;
    SendTiming send(net::NodeId src, net::NodeId dst,
                    std::uint32_t bytes) override;

    const net::DetailedNetwork &network() const { return *net_; }

  private:
    /** The fan-out's critical round trip so far: the last delivered,
     *  a tie going to the higher node. */
    struct Critical
    {
        sim::Tick doneAt = 0;
        net::NodeId target = 0;
        sim::Duration latency = 0;
    };

    sim::Task<net::TransferResult> fanOut(net::NodeId center,
                                          std::uint64_t targets);

    /** One helper's inv/ack round trip; counts @p latch down. */
    sim::Task<> invalidate(net::NodeId center, net::NodeId target,
                           Critical &critical, sim::Latch &latch);

    sim::EventQueue &eq_;
    std::unique_ptr<net::DetailedNetwork> net_;
};

/** The LogP network abstraction (paper Section 3.1). */
class LogPNetModel : public NetModel
{
  public:
    LogPNetModel(sim::EventQueue &eq, net::TopologyKind topo,
                 std::uint32_t nodes, logp::GapPolicy policy);

    const char *name() const override { return "logp"; }

    NetWait transfer(net::NodeId src, net::NodeId dst,
                     std::uint32_t bytes) override;
    NetWait roundTrip(net::NodeId src, net::NodeId dst,
                      std::uint32_t reply_bytes) override;
    NetWait fanOutRoundTrips(net::NodeId center,
                             std::uint64_t targets) override;
    SendTiming send(net::NodeId src, net::NodeId dst,
                    std::uint32_t bytes) override;

    const logp::LogPNetwork &network() const { return *net_; }

  private:
    sim::EventQueue &eq_;
    std::unique_ptr<logp::LogPNetwork> net_;
};

} // namespace absim::mach

#endif // ABSIM_MACHINES_NET_MODEL_HH
