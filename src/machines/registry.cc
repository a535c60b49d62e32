#include "machines/registry.hh"

#include <stdexcept>

namespace absim::mach {

const std::vector<MachineSpec> &
machineRegistry()
{
    static const std::vector<MachineSpec> table = {
        {MachineKind::Target, "target", "target", "detailed", "directory",
         "detailed network + Berkeley directory caches (the real machine)"},
        {MachineKind::LogP, "logp", "logp", "logp", "uncached",
         "LogP network, no caches (every remote reference is a round trip)"},
        {MachineKind::LogPC, "logp+c", "logpc", "logp", "ideal",
         "LogP network + ideal coherent cache (free coherence)"},
        {MachineKind::TargetIC, "target+ic", "targetic", "detailed",
         "ideal",
         "detailed network + ideal coherent cache (isolates locality "
         "error)"},
        {MachineKind::LogPDir, "logp+dir", "logpdir", "logp", "directory",
         "LogP network + real directory caches (isolates network error)"},
    };
    return table;
}

const MachineSpec &
specFor(MachineKind kind)
{
    for (const MachineSpec &spec : machineRegistry())
        if (spec.kind == kind)
            return spec;
    throw std::invalid_argument("machine kind missing from registry");
}

std::string
toString(MachineKind kind)
{
    return specFor(kind).name;
}

bool
parseMachineKind(std::string_view text, MachineKind &out)
{
    for (const MachineSpec &spec : machineRegistry()) {
        if (text == spec.name || text == spec.column) {
            out = spec.kind;
            return true;
        }
    }
    return false;
}

std::string
machineNames()
{
    std::string names;
    for (const MachineSpec &spec : machineRegistry()) {
        if (!names.empty())
            names += ", ";
        names += spec.name;
    }
    return names;
}

std::vector<MachineKind>
defaultFigureMachines()
{
    return {MachineKind::Target, MachineKind::LogP, MachineKind::LogPC};
}

std::vector<MachineKind>
allQuadrants()
{
    std::vector<MachineKind> kinds;
    for (const MachineSpec &spec : machineRegistry())
        kinds.push_back(spec.kind);
    return kinds;
}

std::unique_ptr<ComposedMachine>
makeMachine(MachineKind kind, sim::EventQueue &eq, net::TopologyKind topo,
            std::uint32_t nodes, const mem::HomeMap &homes,
            logp::GapPolicy policy, const CacheConfig &cache,
            ProtocolKind protocol)
{
    return std::make_unique<ComposedMachine>(specFor(kind), eq, topo, nodes,
                                             homes, policy, cache,
                                             protocol);
}

} // namespace absim::mach
