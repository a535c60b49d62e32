/**
 * @file
 * The no-shared-memory machine, for message-passing platform studies:
 * processors communicate exclusively through msg::MsgWorld and any
 * shared-memory access is a programming error (Machine::miss's default
 * throws std::logic_error).
 */

#ifndef ABSIM_MACHINES_NULL_MACHINE_HH
#define ABSIM_MACHINES_NULL_MACHINE_HH

#include "machines/machine.hh"

namespace absim::mach {

class NullMachine : public Machine
{
  public:
    NullMachine(std::uint32_t nodes, const mem::HomeMap &homes)
        : Machine(nodes, homes)
    {
    }

    MachineKind kind() const override { return MachineKind::None; }
};

} // namespace absim::mach

#endif // ABSIM_MACHINES_NULL_MACHINE_HH
