/**
 * @file
 * Fully-mapped directory for the Berkeley invalidation protocol.
 *
 * One DirectoryEntry exists per cache block that has ever been referenced.
 * The entry records the full sharer bit-vector and the owning cache (if the
 * block is in an ownership state somewhere, memory is stale).  Each entry
 * carries a FIFO lock: the home node serializes transactions per block,
 * which is how real blocking directories (and this simulator) avoid
 * protocol races.
 *
 * Supports up to 64 nodes (a bit mask), matching the paper's power-of-two
 * processor sweeps.
 */

#ifndef ABSIM_MEM_DIRECTORY_HH
#define ABSIM_MEM_DIRECTORY_HH

#include <cstdint>

#include "mem/addr.hh"
#include "mem/block_table.hh"
#include "sim/resource.hh"

namespace absim::mem {

/** Directory state for one cache block. */
struct DirectoryEntry
{
    /** Bit i set = node i holds the block (in any valid state). */
    std::uint64_t sharers = 0;

    /** Owning node (Dirty/SharedDirty holder) or kNoOwner. */
    std::int32_t owner = kNoOwner;

    /** Per-block transaction serialization (blocking home). */
    sim::FifoMutex lock;

    static constexpr std::int32_t kNoOwner = -1;

    bool
    isSharer(net::NodeId n) const
    {
        return (sharers >> n) & 1u;
    }

    void addSharer(net::NodeId n) { sharers |= std::uint64_t{1} << n; }
    void removeSharer(net::NodeId n) { sharers &= ~(std::uint64_t{1} << n); }

    /** Number of sharers excluding @p except. */
    std::uint32_t
    sharerCountExcluding(net::NodeId except) const
    {
        const std::uint64_t mask = sharers & ~(std::uint64_t{1} << except);
        return static_cast<std::uint32_t>(__builtin_popcountll(mask));
    }
};

/**
 * The machine-wide directory: one entry per block ever referenced, in a
 * BlockTable so entries never move (a transaction holds its entry, and
 * waits on the entry's lock, across simulated time).  Entries are never
 * removed (state survives silent clean replacements, exactly like a real
 * full-map directory whose information can only go stale
 * conservatively).
 */
using Directory = BlockTable<DirectoryEntry>;

} // namespace absim::mem

#endif // ABSIM_MEM_DIRECTORY_HH
