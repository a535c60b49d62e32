/**
 * @file
 * The message-passing runtime: typed, tagged, point-to-point blocking
 * SEND/RECV for SPASM-style message-passing platform studies.
 *
 * SPASM simulated both shared-memory and message-passing platforms (the
 * paper's companion study, its reference [27]) over the same network
 * abstractions.  Here too: messages are priced by a registry row's
 * network model (mach::NetModel::send), the same object that prices the
 * row's shared-memory traffic, so a program picks its network axis by
 * picking a row and may mix both paradigms on it.
 *
 * Semantics:
 *  - send(p, dst, tag, data) blocks the sender until the network model
 *    frees it (whole transfer on the detailed network; send slot on
 *    LogP) and deposits the payload at the receiver at the delivery
 *    time.
 *  - recv(p, src, tag) blocks until a matching message has been
 *    delivered.  Messages on the same (src, dst, tag) channel are
 *    FIFO-ordered by delivery time.
 *
 * Accounting: the sender is charged the network's sender-side
 * latency/contention.  A receiver that blocks is charged the message's
 * in-flight latency/contention up to its actual blocked interval, and
 * the remainder of the interval to the wait bucket (idle, waiting for
 * the peer to even send) — keeping the profile invariant
 * finishTime == busy + latency + contention + wait exact.
 */

#ifndef ABSIM_MSG_MSG_WORLD_HH
#define ABSIM_MSG_MSG_WORLD_HH

#include <cstdint>
#include <cstring>
#include <deque>
#include <map>
#include <vector>

#include "check/check.hh"
#include "machines/net_model.hh"
#include "runtime/context.hh"

namespace absim::msg {

/** Message tag (user-chosen channel discriminator). */
using Tag = std::uint32_t;

class MsgWorld
{
  public:
    MsgWorld(sim::EventQueue &eq, mach::NetModel &net, std::uint32_t nodes);

    /**
     * Send @p bytes of @p data to node @p dst on channel @p tag.  Blocks
     * the calling processor per the network model's sender semantics.
     */
    void send(rt::Proc &p, net::NodeId dst, Tag tag, const void *data,
              std::uint32_t bytes);

    /**
     * Receive the next message from @p src on channel @p tag, blocking
     * until one has been delivered.
     * @return The payload bytes.
     */
    std::vector<std::uint8_t> recv(rt::Proc &p, net::NodeId src, Tag tag);

    /** Typed convenience wrappers. */
    template <typename T>
    void
    sendValue(rt::Proc &p, net::NodeId dst, Tag tag, const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        send(p, dst, tag, &value, sizeof(T));
    }

    template <typename T>
    T
    recvValue(rt::Proc &p, net::NodeId src, Tag tag)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        const auto bytes = recv(p, src, tag);
        T value;
        ABSIM_CHECK_EQ(bytes.size(), sizeof(T),
                       "typed receive got a payload of the wrong size");
        std::memcpy(&value, bytes.data(), sizeof(T));
        return value;
    }

    std::uint64_t messagesSent() const { return sent_; }

  private:
    struct Delivery
    {
        std::vector<std::uint8_t> payload;
        sim::Tick deliveredAt = 0;
        sim::Duration msgLatency = 0;
        sim::Duration msgContention = 0;
    };

    /** (receiver, sender, tag) channel key. */
    using Key = std::uint64_t;

    static Key
    keyOf(net::NodeId dst, net::NodeId src, Tag tag)
    {
        return (static_cast<Key>(dst) << 48) |
               (static_cast<Key>(src) << 32) | tag;
    }

    struct Channel
    {
        std::deque<Delivery> ready;
        rt::Proc *waiter = nullptr;
    };

    sim::EventQueue &eq_;
    mach::NetModel &net_;
    std::uint32_t nodes_;
    std::map<Key, Channel> channels_;
    std::uint64_t sent_ = 0;
};

} // namespace absim::msg

#endif // ABSIM_MSG_MSG_WORLD_HH
