#include "machines/mem_model.hh"

namespace absim::mach {

bool
UncachedMem::probe(MemClient &client, mem::Addr addr, AccessType type,
                   AccessTiming &t)
{
    (void)type;
    if (homes_.homeOf(addr) != client.node())
        return false;
    ++stats_.accesses;
    ++stats_.localMem;
    t.busy = kLocalMemNs;
    stats_.memTime += t.busy;
    return true;
}

sim::Task<AccessTiming>
UncachedMem::miss(MemClient &client, mem::Addr addr, AccessType type)
{
    (void)type;
    ++stats_.accesses;

    // Remote reference: request/reply round trip on the network.
    AccessTiming t;
    co_await client.syncToEngine();
    t.networked = true;
    ++stats_.networkAccesses;
    co_await charge(
        net_.roundTrip(client.node(), homes_.homeOf(addr), kDataBytes), t);
    co_return t;
}

} // namespace absim::mach
