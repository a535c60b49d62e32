#include "msg/msg_world.hh"

#include <algorithm>
#include <string>

#include "check/check.hh"

namespace absim::msg {

MsgWorld::MsgWorld(sim::EventQueue &eq, mach::NetModel &net,
                   std::uint32_t nodes)
    : eq_(eq), net_(net), nodes_(nodes)
{
}

void
MsgWorld::send(rt::Proc &p, net::NodeId dst, Tag tag, const void *data,
               std::uint32_t bytes)
{
    ABSIM_CHECK(dst < nodes_ && dst != p.node(),
                "node " << p.node() << " sent to invalid target " << dst);
    if (rt::RefSink *s = p.sink()) [[unlikely]]
        s->onUntraceable("message-passing send");
    p.syncNow();
    const sim::Tick began = eq_.now();

    const mach::SendTiming timing = net_.send(p.node(), dst, bytes);
    ++sent_;

    // Sender accounting: the network blocked us until senderFreeAt,
    // and its buckets must partition that interval (conservation).
    ABSIM_CHECK_EQ(eq_.now(), timing.senderFreeAt,
                   "network did not block the sender until its free "
                   "time");
    const sim::Duration elapsed = eq_.now() - began;
    if (check::options().conservation)
        ABSIM_CHECK_EQ(timing.senderLatency + timing.senderContention,
                       elapsed,
                       "sender buckets must partition the blocked "
                       "interval");
    p.absorbEngineTime(timing.senderLatency, timing.senderContention, 0);

    Delivery delivery;
    delivery.payload.assign(static_cast<const std::uint8_t *>(data),
                            static_cast<const std::uint8_t *>(data) +
                                bytes);
    delivery.deliveredAt = timing.deliveredAt;
    delivery.msgLatency = timing.msgLatency;
    delivery.msgContention = timing.msgContention;

    const Key key = keyOf(dst, p.node(), tag);
    if (check::options().causality)
        ABSIM_CHECK(timing.deliveredAt >= eq_.now(),
                    "message from " << p.node() << " to " << dst
                                    << " would be delivered in the past");
    auto deliver = [this, key, delivery = std::move(delivery)]() mutable {
        Channel &channel = channels_[key];
        channel.ready.push_back(std::move(delivery));
        if (channel.waiter != nullptr) {
            rt::Proc *waiter = channel.waiter;
            channel.waiter = nullptr;
            waiter->process()->wake();
        }
    };
    // Message delivery is the hot path of every msg-layer run; the
    // capture must keep fitting the queue's inline event buffer, or
    // each send regresses to a heap-boxed std::function.
    static_assert(sizeof(deliver) <= sim::EventQueue::kInlineBytes);
    eq_.schedule(timing.deliveredAt, std::move(deliver));
}

std::vector<std::uint8_t>
MsgWorld::recv(rt::Proc &p, net::NodeId src, Tag tag)
{
    ABSIM_CHECK(src < nodes_ && src != p.node(),
                "node " << p.node() << " received from invalid source "
                        << src);
    if (rt::RefSink *s = p.sink()) [[unlikely]]
        s->onUntraceable("message-passing recv");
    p.syncNow();
    const sim::Tick began = eq_.now();

    const Key key = keyOf(p.node(), src, tag);
    Channel &channel = channels_[key];
    if (channel.ready.empty()) {
        ABSIM_CHECK(channel.waiter == nullptr,
                    "two receivers blocked on the same channel");
        channel.waiter = &p;
        p.process()->suspend({"msg receive", "src", src, "tag", tag});
        ABSIM_CHECK(!channel.ready.empty(),
                    "receiver woke with no message delivered");
    }

    Delivery delivery = std::move(channel.ready.front());
    channel.ready.pop_front();

    // Receiver accounting: the blocked interval is attributed first to
    // the message's in-flight latency, then its contention, and the
    // rest (time before the peer even sent) to the wait bucket.
    const sim::Duration elapsed = eq_.now() - began;
    const sim::Duration lat = std::min(delivery.msgLatency, elapsed);
    const sim::Duration cont =
        std::min(delivery.msgContention, elapsed - lat);
    p.absorbEngineTime(lat, cont, elapsed - lat - cont);
    return delivery.payload;
}

} // namespace absim::msg
