/**
 * @file
 * Set-associative private cache model.
 *
 * The paper's node caches are 64 KB, 2-way set associative with 32-byte
 * blocks, kept coherent by the Berkeley (ownership-based invalidation)
 * protocol.  Line states follow Berkeley:
 *
 *  - Invalid
 *  - Valid        read-shared, memory (home) up to date
 *  - SharedDirty  owned and possibly shared; memory stale
 *  - Dirty        owned exclusively; memory stale
 *
 * The same structure backs both stateful memory models: the real
 * directory protocol (mach::DirectoryMem, behind target and logp+dir)
 * and the ideal-cache abstraction (mach::IdealCacheMem, behind logp+c
 * and target+ic, which performs the identical state transitions but
 * charges nothing for coherence traffic).
 *
 * The caches of one checked memory model share a PresenceTable: for
 * every block with a resident copy, which nodes hold it and in which
 * states.  The cache's own mutators keep it current, so the coherence
 * checker reads a block's state across all P caches in O(1) instead of
 * scanning them.  A model built with the checker off keeps no table.
 */

#ifndef ABSIM_MEM_CACHE_HH
#define ABSIM_MEM_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "mem/addr.hh"

namespace absim::mem {

/** Berkeley-protocol line states. */
enum class LineState : std::uint8_t
{
    Invalid,
    Valid,
    SharedDirty,
    Dirty,
};

/** True for the two ownership states (memory may be stale). */
constexpr bool
isOwned(LineState s)
{
    return s == LineState::SharedDirty || s == LineState::Dirty;
}

/** True if a line in @p s services an access without a transaction:
 *  a read hits any valid line, a write (or RMW) only a Dirty one. */
constexpr bool
canService(LineState s, bool write)
{
    return write ? s == LineState::Dirty : s != LineState::Invalid;
}

/** Which nodes hold one block, and in which states: bit n of each mask
 *  is node n's copy. */
struct Presence
{
    std::uint64_t holders = 0; ///< Any valid state.
    std::uint64_t owners = 0;  ///< SharedDirty or Dirty.
    std::uint64_t dirty = 0;   ///< Dirty.

    bool operator==(const Presence &) const = default;
};

/**
 * The presence records of one set of caches: a flat open-addressed
 * table (linear probing, backward-shift deletion) from block to
 * Presence.  A block's record exists exactly while some cache holds
 * it, so the table is bounded by resident lines, not by the blocks a
 * run ever touched.
 */
class PresenceTable
{
  public:
    PresenceTable();

    /** The record of @p blk (all zero if no cache holds it). */
    Presence find(BlockId blk) const;

    /** Node @p node's copy of @p blk is now in @p state (Invalid:
     *  gone). */
    void update(BlockId blk, std::uint32_t node, LineState state);

    /** Blocks with a record. */
    std::size_t size() const { return size_; }

    /** Call @p fn(blk, presence) for every record, in table order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i <= mask_; ++i)
            if (slots_[i].blk != kEmpty)
                fn(slots_[i].blk, slots_[i].presence);
    }

  private:
    /** No block id reaches this (ids are addresses over kBlockBytes). */
    static constexpr BlockId kEmpty = ~BlockId{0};

    struct Slot
    {
        BlockId blk = kEmpty;
        Presence presence;
    };

    std::size_t
    home(BlockId blk) const
    {
        return static_cast<std::size_t>(
                   (blk * 0x9e3779b97f4a7c15ULL) >> 32) &
               mask_;
    }

    /** Slot index of @p blk, or of the empty slot that ends its probe. */
    std::size_t probe(BlockId blk) const;

    void erase(std::size_t idx);
    void grow();

    std::unique_ptr<Slot[]> slots_;
    std::size_t mask_ = 0; ///< Capacity - 1 (capacity a power of two).
    std::size_t size_ = 0;
};

/** Per-cache hit/miss/eviction counters. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t upgrades = 0;       ///< Write to Valid/SharedDirty line.
    std::uint64_t evictions = 0;
    std::uint64_t dirtyEvictions = 0; ///< Evictions needing writeback.
    std::uint64_t invalidationsReceived = 0;
};

/**
 * An LRU set-associative cache of coherence state (no data payload: the
 * simulator keeps application data in native memory).
 */
class SetAssocCache
{
  public:
    /**
     * Paper defaults: 64 KB, 2-way, 32 B blocks.
     *
     * @param presence  Records this cache keeps as node @p node (shared
     *                  with its peers; must outlive the cache), or
     *                  nullptr for a cache nobody checks (a model
     *                  built with the coherence checker off).
     */
    SetAssocCache(std::uint32_t capacity_bytes = 64 * 1024,
                  std::uint32_t associativity = 2,
                  PresenceTable *presence = nullptr,
                  std::uint32_t node = 0);

    /** State of @p blk, Invalid if absent. Does not touch LRU. */
    LineState stateOf(BlockId blk) const;

    /** True if @p blk can service an access of the given intent. */
    bool
    hasReadable(BlockId blk) const
    {
        return canService(stateOf(blk), false);
    }

    bool
    hasWritable(BlockId blk) const
    {
        return canService(stateOf(blk), true);
    }

    /** Mark @p blk most recently used (call on hits). */
    void touch(BlockId blk);

    /**
     * The hit path in one scan of the set: if @p blk's line services
     * the access (canService), mark it most recently used and count a
     * hit.  A write to a Valid or SharedDirty line is not a hit: it
     * leaves LRU and the counters alone.
     * @return the line's state (Invalid if absent) either way, so the
     *         caller can tell a hit from an upgrade from a miss.
     */
    LineState
    access(BlockId blk, bool write)
    {
        Line *line = find(blk);
        if (line == nullptr)
            return LineState::Invalid;
        if (canService(line->state, write)) {
            line->lastUse = ++useClock_;
            ++stats_.hits;
        }
        return line->state;
    }

    /**
     * Pick the victim that inserting @p blk would evict.
     *
     * @param blk          Block about to be inserted (must be absent).
     * @param victim_blk   Out: block number of the victim.
     * @param victim_state Out: its state.
     * @return true if a valid line must be evicted first.
     */
    bool victimFor(BlockId blk, BlockId &victim_blk,
                   LineState &victim_state) const;

    /**
     * Install @p blk with @p state, evicting the LRU line of the set if
     * needed (the caller is expected to have handled the victim via
     * victimFor()).  Counts a miss.
     */
    void install(BlockId blk, LineState state);

    /**
     * Change the state of a present line.  Asserts presence.
     */
    void setState(BlockId blk, LineState state);

    /**
     * Drop @p blk (external invalidation). No-op if absent (e.g. the line
     * was silently replaced after the directory recorded the sharer).
     * @return true if a line was actually invalidated.
     */
    bool invalidate(BlockId blk);

    /**
     * Snapshot of all valid lines (block, state), for invariant checking
     * and debugging; order is unspecified.
     */
    std::vector<std::pair<BlockId, LineState>> residentLines() const;

    std::uint32_t sets() const { return sets_; }
    std::uint32_t ways() const { return ways_; }
    const CacheStats &stats() const { return stats_; }
    CacheStats &stats() { return stats_; }

  private:
    struct Line
    {
        BlockId tag = 0;
        LineState state = LineState::Invalid;
        std::uint64_t lastUse = 0;
    };

    const Line *
    find(BlockId blk) const
    {
        const Line *set = &lines_[setIndex(blk) * ways_];
        for (std::uint32_t w = 0; w < ways_; ++w)
            if (set[w].state != LineState::Invalid && set[w].tag == blk)
                return &set[w];
        return nullptr;
    }

    Line *
    find(BlockId blk)
    {
        return const_cast<Line *>(
            static_cast<const SetAssocCache *>(this)->find(blk));
    }

    std::uint32_t
    setIndex(BlockId blk) const
    {
        return static_cast<std::uint32_t>(blk) & (sets_ - 1);
    }

    /** Every line-state change goes through here. */
    void
    setLine(Line &line, LineState state)
    {
        line.state = state;
        if (presence_ != nullptr)
            presence_->update(line.tag, node_, state);
    }

    std::uint32_t sets_;
    std::uint32_t ways_;
    PresenceTable *presence_;
    std::uint32_t node_;
    std::vector<Line> lines_; // sets_ x ways_, row-major by set.
    std::uint64_t useClock_ = 0;
    CacheStats stats_;
};

} // namespace absim::mem

#endif // ABSIM_MEM_CACHE_HH
