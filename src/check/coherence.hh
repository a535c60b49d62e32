/**
 * @file
 * Directory/cache coherence invariant checker.
 *
 * Both stateful memory models (mach::DirectoryMem, the real directory
 * protocol behind target and logp+dir, and mach::IdealCacheMem, the
 * ideal coherent cache behind logp+c and target+ic) perform
 * Berkeley-protocol state transitions; the paper's comparison is
 * meaningful only if those transitions are exact.  This checker
 * verifies, block by block, the invariants any ownership-based
 * invalidation protocol must maintain at transaction boundaries:
 *
 *  - SWMR: at most one cache holds the block in an ownership state
 *    (Dirty / SharedDirty), and a Dirty copy is the *only* copy.
 *  - Directory agreement: every resident copy is a registered sharer,
 *    the directory's owner field names exactly the cache holding the
 *    owned copy, and (for machines whose sharer bits are exact, like the
 *    LogP+C oracle) every sharer bit corresponds to a resident copy.
 *
 * The checker owns the model's mem::PresenceTable, which the model's
 * caches keep current through their own mutators.  checkBlock() is
 * therefore O(1): a few bit tests of the block's holder, owner and
 * dirty masks against the directory's DirInfo, naming the lowest
 * offending node — the node a scan of the caches in node order would
 * report first.  checkAll() at drain first proves the records still
 * equal the caches' resident lines, then checks every resident or
 * tracked block.
 *
 * The memory models invoke checkBlock() after every protocol transition
 * and checkAll() at drain; both are no-ops when
 * check::options().coherence is off.  The records are kept only if it
 * was on when the model was built, so a model built unchecked (replay,
 * the speed benches) pays nothing for them; switching the checker on
 * after such a build is a named check failure, never a skipped check.
 * The checker reads directory state through the DirectoryView the model
 * implements, so it depends only on src/mem, not on any machine model.
 */

#ifndef ABSIM_CHECK_COHERENCE_HH
#define ABSIM_CHECK_COHERENCE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/addr.hh"
#include "mem/cache.hh"

namespace absim::check {

/** A directory's view of one block, as reported by the machine. */
struct DirInfo
{
    /** Bit i set = the directory believes node i holds a copy. */
    std::uint64_t sharers = 0;

    /** Owning node, or -1 for none. */
    std::int32_t owner = -1;

    /** False if the directory has never seen the block. */
    bool tracked = false;

    bool
    isSharer(net::NodeId n) const
    {
        return (sharers >> n) & 1u;
    }
};

/** The directory state a memory model exposes to its checker. */
class DirectoryView
{
  public:
    /** The directory's view of @p blk. */
    virtual DirInfo dirInfo(mem::BlockId blk) const = 0;

    /** Every block the directory tracks (drain-time sweep only). */
    virtual std::vector<mem::BlockId> trackedBlocks() const = 0;

  protected:
    ~DirectoryView() = default;
};

class CoherenceChecker
{
  public:
    /**
     * @param name           Machine name used in failure messages.
     * @param exact_sharers  True if the machine's sharer bits are exact
     *                       (no stale bits from silent clean
     *                       replacements, e.g. the LogP+C oracle).
     * @param caches         The machine's per-node caches, built on
     *                       presence() (must outlive the checker; never
     *                       resized).
     *
     * Presence records are kept only if check::options().coherence is
     * on now, when the model is built.
     * @param directory      The model's directory state.
     */
    CoherenceChecker(
        std::string name, bool exact_sharers,
        const std::vector<std::unique_ptr<mem::SetAssocCache>> &caches,
        const DirectoryView &directory);

    /** The records the model's caches keep (pass to their
     *  constructors), or nullptr if the model was built unchecked. */
    mem::PresenceTable *
    presence()
    {
        return tracking_ ? &presence_ : nullptr;
    }

    /**
     * Verify the invariants for @p blk across all caches.  Call at a
     * transaction boundary: the block must not be mid-transition.
     */
    void checkBlock(mem::BlockId blk) const;

    /** Full sweep: the records against the caches' resident lines,
     *  then every resident or tracked block. */
    void checkAll() const;

    /** Blocks verified so far (proves the validator ran). */
    std::uint64_t blocksChecked() const { return blocksChecked_; }

  private:
    /** Fail if the checker is on but the model was built without
     *  records. */
    void checkTracking() const;

    /** Fail unless presence_ equals what the caches hold. */
    void checkRecords() const;

    std::string name_;
    bool exactSharers_;
    bool tracking_; ///< options().coherence at construction.
    const std::vector<std::unique_ptr<mem::SetAssocCache>> &caches_;
    const DirectoryView &directory_;
    mem::PresenceTable presence_;
    mutable std::uint64_t blocksChecked_ = 0;
};

} // namespace absim::check

#endif // ABSIM_CHECK_COHERENCE_HH
