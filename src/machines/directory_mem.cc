#include "machines/directory_mem.hh"

#include <bit>
#include <utility>

#include "check/check.hh"
#include "sim/trace.hh"

namespace absim::mach {

using mem::BlockId;
using mem::LineState;
using net::NodeId;

DirectoryMem::DirectoryMem(sim::EventQueue &eq, NetModel &net,
                           std::uint32_t nodes, const mem::HomeMap &homes,
                           MachineStats &stats,
                           const CacheConfig &cache_config,
                           ProtocolKind protocol, std::string checker_name)
    : MemModel(net, nodes, homes, stats), eq_(eq), protocol_(protocol),
      checker_(std::move(checker_name), /*exact_sharers=*/false, caches_,
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
DirectoryMem::dirInfo(BlockId blk) const
{
    check::DirInfo info;
    if (const mem::DirectoryEntry *e = dir_.peek(blk)) {
        info.tracked = true;
        info.sharers = e->sharers;
        info.owner = e->owner;
    }
    return info;
}

std::vector<BlockId>
DirectoryMem::trackedBlocks() const
{
    std::vector<BlockId> blocks;
    dir_.forEach([&blocks](BlockId blk, const mem::DirectoryEntry &) {
        blocks.push_back(blk);
    });
    return blocks;
}

DirectoryMem::Charged
DirectoryMem::hop(NodeId src, NodeId dst, std::uint32_t bytes,
                  AccessTiming &t)
{
    if (src == dst) {
        // Stays inside the node.  Only the data transfer costs local
        // memory time; control hops (request/grant) to the co-located
        // directory are free, keeping the node-local miss cost identical
        // to the uncached/ideal memory models' kLocalMemNs.
        if (bytes == kDataBytes)
            t.busy += kLocalMemNs;
        return charge(NetWait{}, t);
    }
    return charge(net_.transfer(src, dst, bytes), t);
}

bool
DirectoryMem::probe(MemClient &client, mem::Addr addr, AccessType type,
                    AccessTiming &t)
{
    const bool write = type != AccessType::Read;
    const LineState state =
        caches_[client.node()]->access(mem::blockOf(addr), write);
    if (!mem::canService(state, write))
        return false;
    ++stats_.accesses;
    ++stats_.cacheHits;
    t.busy = kCacheHitNs;
    stats_.memTime += t.busy;
    return true;
}

sim::Task<AccessTiming>
DirectoryMem::miss(MemClient &client, mem::Addr addr, AccessType type)
{
    ++stats_.accesses;
    const NodeId node = client.node();
    const BlockId blk = mem::blockOf(addr);
    mem::SetAssocCache &cache = *caches_[node];
    const LineState state = cache.stateOf(blk);

    // Miss or upgrade: the transaction runs in engine time.
    AccessTiming t;
    co_await client.syncToEngine();
    const std::uint64_t messages_before = stats_.messages;

    if (state == LineState::Invalid) {
        // Make room: an owned victim is written back first.  Clean
        // (Valid) victims are replaced silently: the directory keeps a
        // stale sharer bit, which at worst causes a harmless spurious
        // invalidation later — exactly like real full-map directories.
        BlockId victim = 0;
        LineState vstate = LineState::Invalid;
        if (cache.victimFor(blk, victim, vstate) && mem::isOwned(vstate)) {
            co_await writeback(node, victim, t);
            checker_.checkBlock(victim);
        }
    }

    if (type == AccessType::Read)
        co_await readMiss(node, blk, t);
    else
        co_await writeMiss(node, blk, state != LineState::Invalid, t);

    if (stats_.messages != messages_before) {
        t.networked = true;
        ++stats_.networkAccesses;
    } else {
        ++stats_.localMem; // Fully node-local transaction.
    }

    // The transaction just committed; its block must satisfy SWMR and
    // agree with the directory at this quiescent point.
    checker_.checkBlock(blk);

    // The access completes out of the (now valid) cache line.
    t.busy += kCacheHitNs;
    stats_.memTime += t.busy;
    co_return t;
}

sim::Task<>
DirectoryMem::writeback(NodeId node, BlockId victim, AccessTiming &t)
{
    mem::DirectoryEntry &entry = dir_.entry(victim);
    t.contention += co_await entry.lock.lock(eq_);

    // While we waited for the lock, another node's write transaction may
    // have stolen ownership and invalidated our line; then there is
    // nothing left to write back.
    if (!mem::isOwned(caches_[node]->stateOf(victim))) {
        entry.lock.release();
        co_return;
    }

    ++stats_.writebacks;
    const NodeId home = homes_.homeOf(mem::blockBase(victim));
    ABSIM_TRACE(eq_, Protocol, "writeback node=" << node
                                   << " blk=" << victim
                                   << " home=" << home);
    co_await hop(node, home, kDataBytes, t);
    if (entry.owner == static_cast<std::int32_t>(node))
        entry.owner = mem::DirectoryEntry::kNoOwner;
    entry.removeSharer(node);
    caches_[node]->setState(victim, LineState::Invalid);
    entry.lock.release();
}

sim::Task<>
DirectoryMem::readMiss(NodeId node, BlockId blk, AccessTiming &t)
{
    ++stats_.readMisses;
    const NodeId home = homes_.homeOf(mem::blockBase(blk));
    mem::DirectoryEntry &entry = dir_.entry(blk);
    t.contention += co_await entry.lock.lock(eq_);
    ABSIM_TRACE(eq_, Protocol, "read miss node=" << node << " blk=" << blk
                                   << " home=" << home
                                   << " owner=" << entry.owner);

    co_await hop(node, home, kCtrlBytes, t); // Request to the directory.

    ABSIM_CHECK(entry.owner != static_cast<std::int32_t>(node),
                "node " << node << " read-missed block " << blk
                        << " that it already owns");
    if (entry.owner != mem::DirectoryEntry::kNoOwner) {
        const auto owner = static_cast<NodeId>(entry.owner);
        if (protocol_ == ProtocolKind::Berkeley) {
            // Berkeley: the owner supplies the block cache-to-cache and
            // keeps ownership, degrading to SharedDirty; memory stays
            // stale.
            co_await hop(home, owner, kCtrlBytes, t); // Forwarded request.
            co_await hop(owner, node, kDataBytes, t); // Owner's data.
            caches_[owner]->setState(blk, LineState::SharedDirty);
        } else {
            // MSI: the owner writes back to the home, which then
            // supplies the data; the ex-owner keeps a clean copy.
            co_await hop(home, owner, kCtrlBytes, t); // Recall.
            co_await hop(owner, home, kDataBytes, t); // Writeback.
            co_await hop(home, node, kDataBytes, t);  // Memory's data.
            caches_[owner]->setState(blk, LineState::Valid);
            entry.owner = mem::DirectoryEntry::kNoOwner;
        }
    } else {
        co_await hop(home, node, kDataBytes, t); // Memory-supplied data.
    }

    entry.addSharer(node);
    caches_[node]->install(blk, LineState::Valid);
    entry.lock.release();
}

sim::Task<>
DirectoryMem::writeMiss(NodeId node, BlockId blk, bool have_line,
                        AccessTiming &t)
{
    const NodeId home = homes_.homeOf(mem::blockBase(blk));
    mem::DirectoryEntry &entry = dir_.entry(blk);
    t.contention += co_await entry.lock.lock(eq_);
    ABSIM_TRACE(eq_, Protocol, (have_line ? "upgrade" : "write miss")
                                   << " node=" << node << " blk=" << blk
                                   << " sharers=" << entry.sharers);

    // The upgrade may have been invalidated while waiting for the lock;
    // the transaction then degenerates into a plain write miss.
    if (have_line &&
        caches_[node]->stateOf(blk) == LineState::Invalid)
        have_line = false;

    if (have_line)
        ++stats_.upgrades;
    else
        ++stats_.writeMisses;

    co_await hop(node, home, kCtrlBytes, t); // Request to the directory.

    if (!have_line) {
        if (entry.owner != mem::DirectoryEntry::kNoOwner &&
            entry.owner != static_cast<std::int32_t>(node)) {
            const auto owner = static_cast<NodeId>(entry.owner);
            if (protocol_ == ProtocolKind::Berkeley) {
                // Ownership transfer: the current owner supplies the
                // data directly and invalidates its copy.
                co_await hop(home, owner, kCtrlBytes, t);
                co_await hop(owner, node, kDataBytes, t);
            } else {
                // MSI: recall through memory.
                co_await hop(home, owner, kCtrlBytes, t);
                co_await hop(owner, home, kDataBytes, t);
                co_await hop(home, node, kDataBytes, t);
            }
            caches_[owner]->invalidate(blk);
            entry.removeSharer(owner);
            entry.owner = mem::DirectoryEntry::kNoOwner;
        } else {
            co_await hop(home, node, kDataBytes, t);
        }
    }

    co_await invalidateSharers(node, blk, entry, t);

    // Ack collection at the home and exclusive grant to the requester.
    co_await hop(home, node, kCtrlBytes, t);

    entry.sharers = 0;
    entry.addSharer(node);
    entry.owner = static_cast<std::int32_t>(node);
    if (have_line)
        caches_[node]->setState(blk, LineState::Dirty);
    else
        caches_[node]->install(blk, LineState::Dirty);
    entry.lock.release();
}

DirectoryMem::Charged
DirectoryMem::invalidateSharers(NodeId node, BlockId blk,
                                mem::DirectoryEntry &entry, AccessTiming &t)
{
    const NodeId home = homes_.homeOf(mem::blockBase(blk));

    // Apply the state flips immediately: the home lock is held, so this is
    // the transaction's serialization point.
    const std::uint64_t invalidated =
        entry.sharers & ~(std::uint64_t{1} << node);
    for (std::uint64_t rest = invalidated; rest != 0; rest &= rest - 1)
        caches_[std::countr_zero(rest)]->invalidate(blk);
    stats_.invalidations += std::popcount(invalidated);
    entry.sharers = 0;

    // An invalidation for the home node itself costs no network traffic
    // (directory and cache are co-located).
    const std::uint64_t remote = invalidated & ~(std::uint64_t{1} << home);
    if (remote == 0)
        return charge(NetWait{}, t);

    // Parallel invalidation/ack round trips from the home; the requester
    // waits for the slowest.  The NetModel partitions the elapsed wait
    // into critical latency and contention.
    return charge(net_.fanOutRoundTrips(home, remote), t);
}

bool
DirectoryMem::corruptStateForFault(std::uint64_t seed)
{
    // Deterministically pick a resident line (the seed rotates the
    // starting node and indexes into its lines) and flip its state
    // without updating the directory — exactly the inconsistency a
    // buggy protocol transition would leave behind.
    for (std::uint32_t i = 0; i < nodes_; ++i) {
        const NodeId n = static_cast<NodeId>((seed + i) % nodes_);
        const auto lines = caches_[n]->residentLines();
        if (lines.empty())
            continue;
        const auto [blk, state] = lines[seed % lines.size()];
        caches_[n]->setState(blk, state == LineState::Valid
                                      ? LineState::Dirty
                                      : LineState::Valid);
        // The corrupted transition must be caught right here, the same
        // way every real transition is checked at its boundary.
        checker_.checkBlock(blk);
        return true;
    }
    return false;
}

} // namespace absim::mach
