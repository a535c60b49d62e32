#include "net/network.hh"

#include <algorithm>
#include <utility>

#include "check/check.hh"
#include "sim/trace.hh"

namespace absim::net {

DetailedNetwork::DetailedNetwork(sim::EventQueue &eq,
                                 std::unique_ptr<Topology> topo)
    : eq_(eq), topo_(std::move(topo)),
      links_(std::make_unique<sim::FifoMutex[]>(topo_->linkCount()))
{
}

std::size_t
DetailedNetwork::routeInto(NodeId src, NodeId dst, Route &path)
{
    routeScratch_.clear();
    topo_->route(src, dst, routeScratch_);
    ABSIM_CHECK(routeScratch_.size() <= kMaxRoute,
                "route " << src << "->" << dst << " exceeds " << kMaxRoute
                         << " links");
    std::copy(routeScratch_.begin(), routeScratch_.end(), path.begin());
    return routeScratch_.size();
}

sim::Task<TransferResult>
DetailedNetwork::send(NodeId src, NodeId dst, std::uint32_t bytes,
                      std::uint32_t reply_bytes)
{
    TransferResult total;
    for (;;) {
        ABSIM_CHECK(src != dst, "local transfer at node "
                                    << src << " reached the network");
        Route path;
        const std::size_t hops = routeInto(src, dst, path);

        TransferResult result;
        // Circuit set-up: grab links in route order.  Holding earlier
        // links while waiting for later ones is exactly wormhole/circuit
        // behaviour and is deadlock-free under dimension-ordered routing.
        for (std::size_t i = 0; i < hops; ++i)
            result.contention += co_await links_[path[i]].lock(eq_);

        // Whole circuit held for the serial transmission time; switching
        // delay is negligible per the paper, so hop count does not add
        // time.
        result.latency = transmissionTime(bytes);
        co_await sim::Delay{eq_, eq_.now() + result.latency};

        for (std::size_t i = hops; i-- > 0;)
            links_[path[i]].release();

        ++stats_.messages;
        stats_.bytes += bytes;
        stats_.latency += result.latency;
        stats_.contention += result.contention;
        ABSIM_TRACE(eq_, Network, "transfer " << src << "->" << dst << " "
                                              << bytes << "B latency="
                                              << result.latency << " wait="
                                              << result.contention);
        total.latency += result.latency;
        total.contention += result.contention;
        if (reply_bytes == 0)
            co_return total;
        std::swap(src, dst);
        bytes = std::exchange(reply_bytes, 0);
    }
}

} // namespace absim::net
