#include "mem/cache.hh"

#include <stdexcept>

#include "check/check.hh"

namespace absim::mem {

SetAssocCache::SetAssocCache(std::uint32_t capacity_bytes,
                             std::uint32_t associativity)
    : ways_(associativity)
{
    const std::uint32_t line_count = capacity_bytes / kBlockBytes;
    if (associativity == 0 || line_count % associativity != 0)
        throw std::invalid_argument("bad cache geometry");
    sets_ = line_count / associativity;
    if ((sets_ & (sets_ - 1)) != 0)
        throw std::invalid_argument("set count must be a power of two");
    lines_.resize(line_count);
}

LineState
SetAssocCache::stateOf(BlockId blk) const
{
    const Line *line = find(blk);
    return line ? line->state : LineState::Invalid;
}

void
SetAssocCache::touch(BlockId blk)
{
    Line *line = find(blk);
    ABSIM_DCHECK(line != nullptr, "touch of absent block " << blk);
    line->lastUse = ++useClock_;
}

bool
SetAssocCache::victimFor(BlockId blk, BlockId &victim_blk,
                         LineState &victim_state) const
{
    ABSIM_DCHECK(find(blk) == nullptr,
                 "victimFor with block " << blk << " already present");
    const std::uint32_t set = setIndex(blk);
    const Line *victim = nullptr;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        const Line &line = lines_[set * ways_ + w];
        if (line.state == LineState::Invalid)
            return false; // Free way: nothing to evict.
        if (victim == nullptr || line.lastUse < victim->lastUse)
            victim = &line;
    }
    victim_blk = victim->tag;
    victim_state = victim->state;
    return true;
}

void
SetAssocCache::install(BlockId blk, LineState state)
{
    ABSIM_DCHECK(state != LineState::Invalid,
                 "install of block " << blk << " as Invalid");
    ABSIM_DCHECK(find(blk) == nullptr,
                 "install over present block " << blk);
    const std::uint32_t set = setIndex(blk);
    Line *slot = nullptr;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        Line &line = lines_[set * ways_ + w];
        if (line.state == LineState::Invalid) {
            slot = &line;
            break;
        }
        if (slot == nullptr || line.lastUse < slot->lastUse)
            slot = &line;
    }
    if (slot->state != LineState::Invalid) {
        ++stats_.evictions;
        if (isOwned(slot->state))
            ++stats_.dirtyEvictions;
    }
    slot->tag = blk;
    slot->state = state;
    slot->lastUse = ++useClock_;
    ++stats_.misses;
}

void
SetAssocCache::setState(BlockId blk, LineState state)
{
    Line *line = find(blk);
    ABSIM_DCHECK(line != nullptr, "setState of absent block " << blk);
    if (state == LineState::Invalid) {
        line->state = LineState::Invalid;
        return;
    }
    line->state = state;
}

std::vector<std::pair<BlockId, LineState>>
SetAssocCache::residentLines() const
{
    std::vector<std::pair<BlockId, LineState>> out;
    for (const Line &line : lines_)
        if (line.state != LineState::Invalid)
            out.emplace_back(line.tag, line.state);
    return out;
}

bool
SetAssocCache::invalidate(BlockId blk)
{
    Line *line = find(blk);
    if (line == nullptr)
        return false;
    line->state = LineState::Invalid;
    ++stats_.invalidationsReceived;
    return true;
}

} // namespace absim::mem
