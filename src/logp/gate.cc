#include "logp/gate.hh"

#include <algorithm>

#include "check/check.hh"

namespace absim::logp {

std::string
toString(GapPolicy policy)
{
    const auto i = static_cast<std::size_t>(policy);
    return i < kGapPolicyNames.size() ? std::string(kGapPolicyNames[i])
                                      : "?";
}

GateSet::GateSet(std::uint32_t nodes, sim::Duration g, GapPolicy policy)
    : g_(g), policy_(policy), gates_(nodes)
{
}

Reservation
GateSet::reserve(sim::Tick &last, bool &used, sim::Tick earliest)
{
    sim::Tick when = earliest;
    if (used)
        when = std::max(earliest, last + g_);
    last = when;
    used = true;
    return Reservation{when, when - earliest};
}

Reservation
GateSet::reserveSend(net::NodeId n, sim::Tick earliest)
{
    ABSIM_DCHECK(n < gates_.size(),
                 "send gate for unknown node " << n);
    NodeGate &gate = gates_[n];
    // Only PerDirection splits the gate; Single and BisectionOnly share
    // one gate per node (the latter filters *which* messages reserve it,
    // in LogPNetwork).
    if (policy_ == GapPolicy::PerDirection)
        return reserve(gate.send, gate.usedSend, earliest);
    return reserve(gate.any, gate.used, earliest);
}

Reservation
GateSet::reserveRecv(net::NodeId n, sim::Tick earliest)
{
    ABSIM_DCHECK(n < gates_.size(),
                 "recv gate for unknown node " << n);
    NodeGate &gate = gates_[n];
    if (policy_ == GapPolicy::PerDirection)
        return reserve(gate.recv, gate.usedRecv, earliest);
    return reserve(gate.any, gate.used, earliest);
}

} // namespace absim::logp
