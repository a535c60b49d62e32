#include "check/coherence.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "check/check.hh"

namespace absim::check {

namespace {

/** The node of the lowest set bit of @p mask. */
net::NodeId
lowestNode(std::uint64_t mask)
{
    return static_cast<net::NodeId>(std::countr_zero(mask));
}

} // namespace

CoherenceChecker::CoherenceChecker(
    std::string name, bool exact_sharers,
    const std::vector<std::unique_ptr<mem::SetAssocCache>> &caches,
    const DirectoryView &directory)
    : name_(std::move(name)), exactSharers_(exact_sharers),
      tracking_(options().coherence), caches_(caches),
      directory_(directory)
{
}

void
CoherenceChecker::checkTracking() const
{
    ABSIM_CHECK(tracking_, name_ << ": coherence checking was switched on "
                                    "after the model was built without "
                                    "it, so no presence records were kept");
}

void
CoherenceChecker::checkBlock(mem::BlockId blk) const
{
    if (!options().coherence)
        return;
    checkTracking();
    ++blocksChecked_;

    const DirInfo dir = directory_.dirInfo(blk);
    const mem::Presence p = presence_.find(blk);

    // Per-node agreement.  Each offending node is one bit; the lowest
    // is the node a scan of the caches in node order reports first.
    if (!dir.tracked) {
        ABSIM_CHECK(p.holders == 0, name_ << ": node "
                                          << lowestNode(p.holders)
                                          << " holds block " << blk
                                          << " unknown to the directory");
    } else {
        const std::uint64_t unlisted = p.holders & ~dir.sharers;
        std::uint64_t stale = 0;
        if (exactSharers_) {
            const std::uint64_t nodes =
                caches_.size() >= 64
                    ? ~std::uint64_t{0}
                    : (std::uint64_t{1} << caches_.size()) - 1;
            stale = dir.sharers & ~p.holders & nodes;
        }
        const std::uint64_t bad = unlisted | stale;
        const std::uint64_t first = bad & (~bad + 1);
        ABSIM_CHECK((first & unlisted) == 0,
                    name_ << ": node " << lowestNode(first)
                          << " holds block " << blk
                          << " without a sharer bit (sharers=0x"
                          << std::hex << dir.sharers << std::dec << ")");
        ABSIM_CHECK((first & stale) == 0,
                    name_ << ": stale sharer bit, node "
                          << lowestNode(first) << " listed for block "
                          << blk << " but holds no copy");
    }

    const auto copies = static_cast<std::uint32_t>(std::popcount(p.holders));
    const auto owned_copies =
        static_cast<std::uint32_t>(std::popcount(p.owners));
    const std::int32_t owned_node =
        owned_copies == 1 ? static_cast<std::int32_t>(lowestNode(p.owners))
                          : -1;

    ABSIM_CHECK(owned_copies <= 1,
                name_ << ": SWMR violated, " << owned_copies
                      << " ownership-state copies of block " << blk);
    if (p.dirty != 0)
        ABSIM_CHECK(copies == 1,
                    name_ << ": Dirty copy of block " << blk
                          << " coexists with " << copies - 1
                          << " other copies");
    if (owned_copies == 1)
        ABSIM_CHECK(dir.owner == owned_node,
                    name_ << ": node " << owned_node
                          << " owns block " << blk
                          << " but the directory names owner "
                          << dir.owner);
    if (dir.tracked && dir.owner >= 0)
        ABSIM_CHECK(owned_copies == 1 && owned_node == dir.owner,
                    name_ << ": directory owner " << dir.owner
                          << " holds no ownership-state copy of block "
                          << blk);
}

void
CoherenceChecker::checkRecords() const
{
    // Every resident line shows in its block's record ...
    std::uint64_t copies = 0;
    for (net::NodeId n = 0;
         n < static_cast<net::NodeId>(caches_.size()); ++n) {
        const std::uint64_t bit = std::uint64_t{1} << n;
        for (const auto &[blk, state] : caches_[n]->residentLines()) {
            ++copies;
            const mem::Presence p = presence_.find(blk);
            ABSIM_CHECK((p.holders & bit) != 0 &&
                            ((p.owners & bit) != 0) == mem::isOwned(state) &&
                            ((p.dirty & bit) != 0) ==
                                (state == mem::LineState::Dirty),
                        name_ << ": presence record of block " << blk
                              << " drifted from the caches: node " << n
                              << " holds it in state "
                              << static_cast<int>(state)
                              << ", the record says holders=0x" << std::hex
                              << p.holders << " owners=0x" << p.owners
                              << " dirty=0x" << p.dirty << std::dec);
        }
    }
    // ... and the records hold nothing else.
    std::uint64_t recorded = 0;
    presence_.forEach([&](mem::BlockId blk, const mem::Presence &p) {
        recorded += static_cast<std::uint64_t>(std::popcount(p.holders));
        ABSIM_CHECK(p.holders != 0 && (p.owners & ~p.holders) == 0 &&
                        (p.dirty & ~p.owners) == 0,
                    name_ << ": presence record of block " << blk
                          << " is malformed (holders=0x" << std::hex
                          << p.holders << " owners=0x" << p.owners
                          << " dirty=0x" << p.dirty << std::dec << ")");
    });
    ABSIM_CHECK(recorded == copies,
                name_ << ": presence records list " << recorded
                      << " copies but the caches hold " << copies);
}

void
CoherenceChecker::checkAll() const
{
    if (!options().coherence)
        return;
    checkTracking();
    checkRecords();
    std::vector<mem::BlockId> blocks = directory_.trackedBlocks();
    presence_.forEach([&blocks](mem::BlockId blk, const mem::Presence &) {
        blocks.push_back(blk);
    });
    std::sort(blocks.begin(), blocks.end());
    blocks.erase(std::unique(blocks.begin(), blocks.end()), blocks.end());
    for (const mem::BlockId blk : blocks)
        checkBlock(blk);
}

} // namespace absim::check
