/**
 * @file
 * The ideal coherent cache (paper Section 3.2).
 *
 * Each node has the same 64 KB 2-way cache geometry as the directory
 * memory system and the caches go through the same Berkeley state
 * transitions — but the overheads of coherence maintenance are not
 * modeled: invalidations, ownership transfers and writebacks are
 * instantaneous and free.  Network round trips are charged only when a
 * request cannot be satisfied by the cache or local memory (a miss whose
 * data lives remotely), so the model captures the application's true
 * communication — the minimum message count any invalidation protocol
 * could hope to achieve.
 *
 * Composed with LogPNetModel this is the paper's LogP+C machine;
 * composed with DetailedNetModel it is the "target+ic" quadrant, which
 * isolates the locality abstraction's error under the real network.
 */

#ifndef ABSIM_MACHINES_IDEAL_MEM_HH
#define ABSIM_MACHINES_IDEAL_MEM_HH

#include <memory>
#include <string>
#include <vector>

#include "check/coherence.hh"
#include "machines/mem_model.hh"
#include "mem/block_table.hh"
#include "mem/cache.hh"

namespace absim::mach {

class IdealCacheMem : public MemModel, private check::DirectoryView
{
  public:
    /** Zero-cost global coherence bookkeeping for one block. */
    struct OracleEntry
    {
        std::uint64_t sharers = 0;
        std::int32_t owner = -1;
    };

    /**
     * @param checker_name  Machine name used in coherence-failure
     *                      messages (the composition's registry name).
     */
    IdealCacheMem(NetModel &net, std::uint32_t nodes,
                  const mem::HomeMap &homes, MachineStats &stats,
                  const CacheConfig &cache_config, std::string checker_name);

    const char *name() const override { return "ideal"; }

    /** Cache hits and the free upgrade. */
    bool probe(MemClient &client, mem::Addr addr, AccessType type,
               AccessTiming &t) override;

    /** True misses: a round trip to wherever the data lives, unless it
     *  lives in this node's memory. */
    sim::Task<AccessTiming> miss(MemClient &client, mem::Addr addr,
                                 AccessType type) override;

    /** Full SWMR + oracle-agreement sweep.  The oracle bookkeeping is
     *  exact (no silent stale bits), so the sweep is strict. */
    void checkInvariants() const override { checker_.checkAll(); }

    const mem::SetAssocCache &cache(net::NodeId n) const
    {
        return *caches_[n];
    }
    const mem::BlockTable<OracleEntry> &oracle() const { return oracle_; }
    const check::CoherenceChecker &checker() const { return checker_; }

    /** @name Test-only hooks.
     *
     * Mutable access to the caches and the coherence oracle so tests can
     * drive them into inconsistent states and prove the checker fires.
     * Never call these from simulation code.
     */
    /// @{
    mem::SetAssocCache &cacheForTest(net::NodeId n) { return *caches_[n]; }
    OracleEntry &oracleForTest(mem::BlockId blk) { return entryOf(blk); }
    /// @}

  protected:
    /** @name The checker's view of the directory (protected so a test
     *  can derive to watch every check). */
    /// @{
    check::DirInfo dirInfo(mem::BlockId blk) const override;
    std::vector<mem::BlockId> trackedBlocks() const override;
    /// @}

  private:
    OracleEntry &entryOf(mem::BlockId blk) { return oracle_.entry(blk); }

    /** Silent, free eviction of the LRU victim (data teleports home). */
    void makeRoom(net::NodeId node, mem::BlockId blk);

    /** Free, instantaneous invalidation of every sharer but @p node. */
    void invalidateOthers(net::NodeId node, mem::BlockId blk,
                          OracleEntry &entry);

    std::vector<std::unique_ptr<mem::SetAssocCache>> caches_;
    mem::BlockTable<OracleEntry> oracle_;
    check::CoherenceChecker checker_;
};

} // namespace absim::mach

#endif // ABSIM_MACHINES_IDEAL_MEM_HH
