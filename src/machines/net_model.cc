#include "machines/net_model.hh"

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
DetailedNetModel::fanOutRoundTrips(NodeId center,
                                   const std::vector<NodeId> &targets)
{
    return NetWait{fanOut(center, targets),
                   2 * static_cast<std::uint32_t>(targets.size())};
}

sim::Task<net::TransferResult>
DetailedNetModel::fanOut(NodeId center, const std::vector<NodeId> &targets)
{
    // One detached helper per target runs the inv/ack round trip; the
    // caller waits on the latch for the slowest.  Results and latch live
    // in this frame, which resumes only after the last helper's count.
    std::vector<HelperResult> results(targets.size());
    sim::Latch latch(static_cast<std::uint32_t>(targets.size()));
    const sim::Tick began = eq_.now();
    for (std::size_t i = 0; i < targets.size(); ++i) {
        HelperResult *result = &results[i];
        sim::spawn(eq_, "inv-helper", began,
                   [this, center, target = targets[i], result, &latch] {
                       return invalidate(center, target, *result, latch);
                   });
    }
    co_await latch.wait(eq_);

    // The caller waited for the slowest helper; charge that helper's
    // contention-free time as latency and the remainder as contention,
    // which partitions the elapsed wait exactly.
    const sim::Tick elapsed = eq_.now() - began;
    sim::Duration critical_latency = 0;
    sim::Tick latest = 0;
    for (const HelperResult &r : results) {
        if (r.doneAt >= latest) {
            latest = r.doneAt;
            critical_latency = r.latency;
        }
    }
    co_return net::TransferResult{critical_latency,
                                  elapsed - critical_latency};
}

sim::Task<>
DetailedNetModel::invalidate(NodeId center, NodeId target,
                             HelperResult &result, sim::Latch &latch)
{
    const net::TransferResult r =
        co_await net_->send(center, target, kCtrlBytes, kCtrlBytes);
    result.latency = r.latency;
    result.doneAt = eq_.now();
    latch.countDown();
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
LogPNetModel::fanOutRoundTrips(NodeId center,
                               const std::vector<NodeId> &targets)
{
    // All round trips start now; g-gates at the center serialize the
    // sends, which is exactly LogP's model of an invalidation fan-out.
    NetTiming t;
    const sim::Tick began = eq_.now();
    sim::Tick latest = began;
    sim::Duration critical_latency = 0;
    for (const NodeId tgt : targets) {
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

} // namespace absim::mach
