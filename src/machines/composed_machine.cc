#include "machines/composed_machine.hh"

#include "check/check.hh"

namespace absim::mach {

ComposedMachine::ComposedMachine(MachineKind kind, std::uint32_t nodes,
                                 const mem::HomeMap &homes,
                                 const NetFactory &make_net,
                                 const MemFactory &make_mem)
    : Machine(nodes, homes), kind_(kind), net_model_(make_net()),
      mem_model_(make_mem(*net_model_, stats_))
{
    ABSIM_CHECK(net_model_ && mem_model_,
                "composed machine " << toString(kind)
                                    << " is missing a model");
}

} // namespace absim::mach
