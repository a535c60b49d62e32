#include "machines/net_model.hh"

#include <bit>

#include "check/check.hh"
#include "sim/process.hh"

namespace absim::mach {

using net::NodeId;

DetailedNetModel::DetailedNetModel(sim::EventQueue &eq,
                                   net::TopologyKind topo,
                                   std::uint32_t nodes)
    : eq_(eq), net_(std::make_unique<net::DetailedNetwork>(
                   eq, net::Topology::make(topo, nodes)))
{
}

NetWait
DetailedNetModel::transfer(NodeId src, NodeId dst, std::uint32_t bytes)
{
    return NetWait{net_->send(src, dst, bytes), 1};
}

NetWait
DetailedNetModel::roundTrip(NodeId src, NodeId dst,
                            std::uint32_t reply_bytes)
{
    return NetWait{net_->send(src, dst, kCtrlBytes, reply_bytes), 2};
}

NetWait
DetailedNetModel::fanOutRoundTrips(NodeId center, std::uint64_t targets)
{
    return NetWait{fanOut(center, targets),
                   2 * static_cast<std::uint32_t>(std::popcount(targets))};
}

sim::Task<net::TransferResult>
DetailedNetModel::fanOut(NodeId center, std::uint64_t targets)
{
    // One detached helper coroutine per target runs the inv/ack round
    // trip; the caller waits on the latch for the slowest.  The
    // critical record and latch live in this frame, which resumes only
    // after the last helper's count.
    Critical critical;
    sim::Latch latch(static_cast<std::uint32_t>(std::popcount(targets)));
    const sim::Tick began = eq_.now();
    for (std::uint64_t rest = targets; rest != 0; rest &= rest - 1) {
        const auto target = static_cast<NodeId>(std::countr_zero(rest));
        sim::spawn(eq_, began, [this, center, target, &critical, &latch] {
            return invalidate(center, target, critical, latch);
        });
    }
    co_await latch.wait(eq_);

    // The caller waited for the slowest helper; charge that helper's
    // contention-free time as latency and the remainder as contention,
    // which partitions the elapsed wait exactly.
    const sim::Tick elapsed = eq_.now() - began;
    co_return net::TransferResult{critical.latency,
                                  elapsed - critical.latency};
}

sim::Task<>
DetailedNetModel::invalidate(NodeId center, NodeId target,
                             Critical &critical, sim::Latch &latch)
{
    const net::TransferResult r =
        co_await net_->send(center, target, kCtrlBytes, kCtrlBytes);
    const sim::Tick done = eq_.now();
    if (done > critical.doneAt ||
        (done == critical.doneAt && target >= critical.target))
        critical = Critical{done, target, r.latency};
    latch.countDown();
}

SendTiming
DetailedNetModel::send(NodeId src, NodeId dst, std::uint32_t bytes)
{
    ABSIM_CHECK(sim::Process::current() != nullptr,
                "send outside a simulated process");
    // Circuit switching holds the sender for the whole transfer: the
    // payload is delivered exactly when the sender is freed, and all
    // cost lands on the sender.
    const net::TransferResult r = net_->send(src, dst, bytes).get();
    SendTiming t;
    t.senderFreeAt = eq_.now();
    t.deliveredAt = eq_.now();
    t.senderLatency = r.latency;
    t.senderContention = r.contention;
    return t;
}

LogPNetModel::LogPNetModel(sim::EventQueue &eq, net::TopologyKind topo,
                           std::uint32_t nodes, logp::GapPolicy policy)
    : eq_(eq), net_(std::make_unique<logp::LogPNetwork>(
                   logp::paramsFor(topo, nodes), policy))
{
}

NetWait
LogPNetModel::transfer(NodeId src, NodeId dst, std::uint32_t bytes)
{
    (void)bytes; // LogP messages cost L regardless of payload.
    const logp::LogPTiming m = net_->message(src, dst, eq_.now());
    return NetWait{eq_, m.deliveredAt,
                   NetTiming{m.latency, m.contention, m.messages}};
}

NetWait
LogPNetModel::roundTrip(NodeId src, NodeId dst, std::uint32_t reply_bytes)
{
    (void)reply_bytes;
    const logp::LogPTiming rt = net_->roundTrip(src, dst, eq_.now());
    return NetWait{eq_, rt.deliveredAt,
                   NetTiming{rt.latency, rt.contention, rt.messages}};
}

NetWait
LogPNetModel::fanOutRoundTrips(NodeId center, std::uint64_t targets)
{
    // All round trips start now; g-gates at the center serialize the
    // sends, which is exactly LogP's model of an invalidation fan-out.
    NetTiming t;
    const sim::Tick began = eq_.now();
    sim::Tick latest = began;
    sim::Duration critical_latency = 0;
    for (std::uint64_t rest = targets; rest != 0; rest &= rest - 1) {
        const auto tgt = static_cast<NodeId>(std::countr_zero(rest));
        const logp::LogPTiming rt = net_->roundTrip(center, tgt, began);
        t.messages += rt.messages;
        if (rt.deliveredAt >= latest) {
            latest = rt.deliveredAt;
            critical_latency = rt.latency;
        }
    }
    t.latency = critical_latency;
    t.contention = (latest - began) - critical_latency;
    return NetWait{eq_, latest, t};
}

SendTiming
LogPNetModel::send(NodeId src, NodeId dst, std::uint32_t bytes)
{
    (void)bytes; // LogP messages are fixed-size; L already assumes 32 B.
    sim::Process *self = sim::Process::current();
    ABSIM_CHECK(self != nullptr, "send outside a simulated process");

    const sim::Tick now = eq_.now();
    const logp::LogPTiming m = net_->message(src, dst, now);

    // The sender is occupied only until its send slot is granted (plus
    // the o overhead); the L flight time and the receive-gate wait
    // belong to the message and are charged to a blocked receiver.
    SendTiming t;
    t.senderFreeAt = now + m.sourceWait + net_->params().o;
    t.deliveredAt = m.deliveredAt;
    // The o overhead is processor time spent injecting the message;
    // charge it on the latency side so sender buckets exactly cover the
    // blocked interval (o is zero for the paper's shared-memory NI).
    t.senderLatency = net_->params().o;
    t.senderContention = m.sourceWait;
    t.msgLatency = m.latency;
    t.msgContention = m.sinkWait;

    if (t.senderFreeAt > now)
        self->delayUntil(t.senderFreeAt);
    return t;
}

} // namespace absim::mach
