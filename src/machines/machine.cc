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
    const auto i = static_cast<std::size_t>(kind);
    return i < kProtocolNames.size() ? std::string(kProtocolNames[i]) : "?";
}

} // namespace absim::mach
