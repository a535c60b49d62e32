#include "machines/ideal_mem.hh"

#include <utility>

#include "check/check.hh"

namespace absim::mach {

using mem::BlockId;
using mem::LineState;
using net::NodeId;

IdealCacheMem::IdealCacheMem(NetModel &net, std::uint32_t nodes,
                             const mem::HomeMap &homes, MachineStats &stats,
                             const CacheConfig &cache_config,
                             std::string checker_name)
    : MemModel(net, nodes, homes, stats),
      checker_(std::move(checker_name), /*exact_sharers=*/true, caches_,
               *this)
{
    ABSIM_CHECK(nodes <= mem::kMaxNodes,
                nodes << " nodes exceed the " << mem::kMaxNodes
                      << "-node sharer masks");
    caches_.reserve(nodes);
    for (std::uint32_t i = 0; i < nodes; ++i)
        caches_.push_back(std::make_unique<mem::SetAssocCache>(
            cache_config.bytes, cache_config.ways, checker_.presence(),
            i));
}

check::DirInfo
IdealCacheMem::dirInfo(BlockId blk) const
{
    check::DirInfo info;
    if (const OracleEntry *e = oracle_.peek(blk)) {
        info.tracked = true;
        info.sharers = e->sharers;
        info.owner = e->owner;
    }
    return info;
}

std::vector<BlockId>
IdealCacheMem::trackedBlocks() const
{
    std::vector<BlockId> blocks;
    blocks.reserve(oracle_.entryCount());
    oracle_.forEach([&blocks](BlockId blk, const OracleEntry &) {
        blocks.push_back(blk);
    });
    return blocks;
}

void
IdealCacheMem::makeRoom(NodeId node, BlockId blk)
{
    BlockId victim;
    LineState vstate;
    if (!caches_[node]->victimFor(blk, victim, vstate))
        return;
    OracleEntry &entry = entryOf(victim);
    entry.sharers &= ~(std::uint64_t{1} << node);
    if (entry.owner == static_cast<std::int32_t>(node))
        entry.owner = -1; // Writeback is free: data teleports home.
    caches_[node]->setState(victim, LineState::Invalid);
    checker_.checkBlock(victim);
}

void
IdealCacheMem::invalidateOthers(NodeId node, BlockId blk,
                                OracleEntry &entry)
{
    const std::uint64_t others =
        entry.sharers & ~(std::uint64_t{1} << node);
    if (others != 0) {
        for (NodeId s = 0; s < nodes_; ++s) {
            if ((others >> s) & 1u) {
                caches_[s]->invalidate(blk);
                ++stats_.invalidations; // Counted, but free.
            }
        }
    }
    entry.sharers = std::uint64_t{1} << node;
    entry.owner = static_cast<std::int32_t>(node);
}

bool
IdealCacheMem::probe(MemClient &client, mem::Addr addr, AccessType type,
                     AccessTiming &t)
{
    const NodeId node = client.node();
    const BlockId blk = mem::blockOf(addr);
    mem::SetAssocCache &cache = *caches_[node];
    const bool write = type != AccessType::Read;
    const LineState state = cache.access(blk, write);

    if (mem::canService(state, write)) {
        ++stats_.accesses;
        ++stats_.cacheHits;
    } else if (state != LineState::Invalid) {
        // Upgrade: the paper's canonical example — the block is valid in
        // several caches and one processor writes.  The directory memory
        // system sends invalidations; here the state flips are free and
        // there is no network access at all.
        ++stats_.accesses;
        ++stats_.upgrades;
        ++cache.stats().upgrades;
        invalidateOthers(node, blk, entryOf(blk));
        cache.setState(blk, LineState::Dirty);
        cache.touch(blk);
        checker_.checkBlock(blk);
    } else {
        return false;
    }
    t.busy = kCacheHitNs;
    stats_.memTime += t.busy;
    return true;
}

sim::Task<AccessTiming>
IdealCacheMem::miss(MemClient &client, mem::Addr addr, AccessType type)
{
    ++stats_.accesses;
    const NodeId node = client.node();
    const BlockId blk = mem::blockOf(addr);
    mem::SetAssocCache &cache = *caches_[node];
    const bool is_read = (type == AccessType::Read);

    // True miss: find where the data lives.  The home lookup validates
    // the address before any per-block state is made for it.
    const NodeId home = homes_.homeOf(addr);
    if (is_read)
        ++stats_.readMisses;
    else
        ++stats_.writeMisses;
    makeRoom(node, blk);

    OracleEntry &entry = entryOf(blk);
    NodeId source = home;
    if (entry.owner >= 0 &&
        entry.owner != static_cast<std::int32_t>(node)) {
        // A remote cache owns the only up-to-date copy: fetching it is
        // true communication and is charged even in the ideal model.
        source = static_cast<NodeId>(entry.owner);
    }

    AccessTiming t;
    if (source != node) {
        co_await client.syncToEngine();
        t.networked = true;
        ++stats_.networkAccesses;
        co_await charge(net_.roundTrip(node, source, kDataBytes), t);
    } else {
        ++stats_.localMem;
        t.busy += kLocalMemNs;
    }

    if (is_read) {
        if (entry.owner >= 0 &&
            entry.owner != static_cast<std::int32_t>(node)) {
            // Berkeley transition: the supplying owner keeps ownership in
            // SharedDirty (free state change).
            caches_[static_cast<NodeId>(entry.owner)]->setState(
                blk, LineState::SharedDirty);
        }
        entry.sharers |= std::uint64_t{1} << node;
        cache.install(blk, LineState::Valid);
    } else {
        invalidateOthers(node, blk, entry);
        cache.install(blk, LineState::Dirty);
    }

    checker_.checkBlock(blk);
    t.busy += kCacheHitNs;
    stats_.memTime += t.busy;
    co_return t;
}

} // namespace absim::mach
