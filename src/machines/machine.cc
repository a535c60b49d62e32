#include "machines/machine.hh"

#include <stdexcept>

namespace absim::mach {

sim::Task<AccessTiming>
Machine::miss(MemClient &, mem::Addr, AccessType)
{
    throw std::logic_error("miss() on a machine that implements no "
                           "miss transaction");
}

AccessTiming
Machine::access(MemClient &client, mem::Addr addr, AccessType type,
                std::uint32_t bytes)
{
    (void)bytes;
    AccessTiming t;
    if (probe(client, addr, type, t))
        return t;
    return miss(client, addr, type).get();
}

std::string
toString(ProtocolKind kind)
{
    switch (kind) {
      case ProtocolKind::Berkeley:
        return "berkeley";
      case ProtocolKind::Msi:
        return "msi";
    }
    return "?";
}

} // namespace absim::mach
