/**
 * @file
 * Real directory caches: per-node set-associative private caches kept
 * sequentially consistent by an invalidation-based (Berkeley or MSI)
 * fully-mapped directory protocol (paper Sections 3 and 5).
 *
 * Protocol style: *blocking home*.  Every miss/upgrade/writeback locks
 * the block's directory entry at its home node for the duration of the
 * transaction, which serializes conflicting transactions exactly like a
 * busy-bit blocking directory.  State transitions are applied at
 * transaction points while the lock is held; the network transfers
 * inside the transaction provide the timing.
 *
 * Composed with DetailedNetModel this is the paper's target machine;
 * composed with LogPNetModel it is the "logp+dir" quadrant, which
 * isolates the network abstraction's error under a real coherence
 * protocol.
 */

#ifndef ABSIM_MACHINES_DIRECTORY_MEM_HH
#define ABSIM_MACHINES_DIRECTORY_MEM_HH

#include <memory>
#include <string>
#include <vector>

#include "check/coherence.hh"
#include "machines/mem_model.hh"
#include "mem/cache.hh"
#include "mem/directory.hh"
#include "sim/event_queue.hh"

namespace absim::mach {

class DirectoryMem : public MemModel, private check::DirectoryView
{
  public:
    /**
     * @param eq       Engine (protocol tracing).
     * @param net      Network model the protocol messages are charged to.
     * @param checker_name  Machine name used in coherence-failure
     *                 messages (the composition's registry name).
     */
    DirectoryMem(sim::EventQueue &eq, NetModel &net, std::uint32_t nodes,
                 const mem::HomeMap &homes, MachineStats &stats,
                 const CacheConfig &cache_config, ProtocolKind protocol,
                 std::string checker_name);

    const char *name() const override { return "directory"; }

    /** Cache hits. */
    bool probe(MemClient &client, mem::Addr addr, AccessType type,
               AccessTiming &t) override;

    /** Misses and upgrades: victim writeback, then the read-miss or
     *  write-miss transaction at the block's home. */
    sim::Task<AccessTiming> miss(MemClient &client, mem::Addr addr,
                                 AccessType type) override;

    /** Full SWMR + directory-agreement sweep over every tracked block. */
    void checkInvariants() const override { checker_.checkAll(); }

    /**
     * Chaos hook: flip one resident line's coherence state behind the
     * directory's back (seed picks the line), then re-check the block
     * so the corruption is caught at the very transition it models.
     */
    bool corruptStateForFault(std::uint64_t seed) override;

    ProtocolKind protocol() const { return protocol_; }
    const mem::SetAssocCache &cache(net::NodeId n) const
    {
        return *caches_[n];
    }
    const mem::Directory &directory() const { return dir_; }
    const check::CoherenceChecker &checker() const { return checker_; }

    /** @name Test-only hooks.
     *
     * Mutable access to protocol state so tests can deliberately drive
     * the caches and directory into inconsistent states and prove the
     * coherence checker fires.  Never call these from simulation code.
     */
    /// @{
    mem::SetAssocCache &cacheForTest(net::NodeId n) { return *caches_[n]; }
    mem::Directory &directoryForTest() { return dir_; }
    /// @}

  protected:
    /** @name The checker's view of the directory (protected so a test
     *  can derive to watch every check). */
    /// @{
    check::DirInfo dirInfo(mem::BlockId blk) const override;
    std::vector<mem::BlockId> trackedBlocks() const override;
    /// @}

  private:
    /** One network hop charged to @p t; complete at once if src==dst
     *  (then the data-transfer cost is charged to busy instead). */
    Charged hop(net::NodeId src, net::NodeId dst, std::uint32_t bytes,
                AccessTiming &t);

    /** Write the victim back to its home and update the directory. */
    sim::Task<> writeback(net::NodeId node, mem::BlockId victim,
                          AccessTiming &t);

    /** Read-miss transaction (Berkeley: owner supplies if one exists). */
    sim::Task<> readMiss(net::NodeId node, mem::BlockId blk,
                         AccessTiming &t);

    /** Write-miss / upgrade transaction: fetch data if needed, invalidate
     *  all other copies, take exclusive ownership. */
    sim::Task<> writeMiss(net::NodeId node, mem::BlockId blk,
                          bool have_line, AccessTiming &t);

    /** Invalidate every sharer but @p node, then fan the messages out in
     *  parallel and wait for all acks.  The state flips happen at once
     *  (the home lock is held); the traffic contributes timing only. */
    Charged invalidateSharers(net::NodeId node, mem::BlockId blk,
                              mem::DirectoryEntry &entry, AccessTiming &t);

    sim::EventQueue &eq_;
    std::vector<std::unique_ptr<mem::SetAssocCache>> caches_;
    mem::Directory dir_;
    ProtocolKind protocol_;
    check::CoherenceChecker checker_;
};

} // namespace absim::mach

#endif // ABSIM_MACHINES_DIRECTORY_MEM_HH
