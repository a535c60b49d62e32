#include "machines/composed_machine.hh"

#include <stdexcept>
#include <string>
#include <string_view>

#include "machines/directory_mem.hh"
#include "machines/ideal_mem.hh"
#include "machines/registry.hh"

namespace absim::mach {

std::unique_ptr<NetModel>
makeNetModel(const MachineSpec &spec, sim::EventQueue &eq,
             net::TopologyKind topo, std::uint32_t nodes,
             logp::GapPolicy policy)
{
    const std::string_view model = spec.netModel;
    if (model == "detailed")
        return std::make_unique<DetailedNetModel>(eq, topo, nodes);
    if (model == "logp")
        return std::make_unique<LogPNetModel>(eq, topo, nodes, policy);
    throw std::invalid_argument("machine " + std::string(spec.name) +
                                " has no network model");
}

namespace {

std::unique_ptr<MemModel>
makeMemModel(const MachineSpec &spec, sim::EventQueue &eq, NetModel &net,
             std::uint32_t nodes, const mem::HomeMap &homes,
             MachineStats &stats, const CacheConfig &cache,
             ProtocolKind protocol)
{
    const std::string_view model = spec.memModel;
    if (model == "directory")
        return std::make_unique<DirectoryMem>(eq, net, nodes, homes, stats,
                                              cache, protocol, spec.name);
    if (model == "ideal")
        return std::make_unique<IdealCacheMem>(net, nodes, homes, stats,
                                               cache, spec.name);
    if (model == "uncached")
        return std::make_unique<UncachedMem>(net, nodes, homes, stats);
    throw std::invalid_argument("machine " + std::string(spec.name) +
                                " has no memory model");
}

} // namespace

ComposedMachine::ComposedMachine(const MachineSpec &spec,
                                 sim::EventQueue &eq,
                                 net::TopologyKind topo,
                                 std::uint32_t nodes,
                                 const mem::HomeMap &homes,
                                 logp::GapPolicy policy,
                                 const CacheConfig &cache,
                                 ProtocolKind protocol)
    : Machine(nodes, homes), kind_(spec.kind),
      net_model_(makeNetModel(spec, eq, topo, nodes, policy)),
      mem_model_(makeMemModel(spec, eq, *net_model_, nodes, homes, stats_,
                              cache, protocol))
{
}

AccessTiming
ComposedMachine::access(MemClient &client, mem::Addr addr, AccessType type,
                        std::uint32_t bytes)
{
    (void)bytes;
    AccessTiming t;
    if (probe(client, addr, type, t))
        return t;
    return miss(client, addr, type).get();
}

} // namespace absim::mach
