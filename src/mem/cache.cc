#include "mem/cache.hh"

#include <stdexcept>

#include "check/check.hh"

namespace absim::mem {

namespace {
constexpr std::size_t kInitialSlots = 256;
} // namespace

PresenceTable::PresenceTable()
    : slots_(new Slot[kInitialSlots]), mask_(kInitialSlots - 1)
{
}

std::size_t
PresenceTable::probe(BlockId blk) const
{
    std::size_t idx = home(blk);
    while (slots_[idx].blk != blk && slots_[idx].blk != kEmpty)
        idx = (idx + 1) & mask_;
    return idx;
}

Presence
PresenceTable::find(BlockId blk) const
{
    return slots_[probe(blk)].presence; // An empty slot's is all zero.
}

void
PresenceTable::update(BlockId blk, std::uint32_t node, LineState state)
{
    std::size_t idx = probe(blk);
    Slot *slot = &slots_[idx];
    if (slot->blk == kEmpty) {
        if (state == LineState::Invalid)
            return; // No record, and none needed.
        if ((size_ + 1) * 4 > (mask_ + 1) * 3) { // Load factor 3/4.
            grow();
            idx = probe(blk);
            slot = &slots_[idx];
        }
        slot->blk = blk;
        ++size_;
    }
    const std::uint64_t bit = std::uint64_t{1} << node;
    Presence &p = slot->presence;
    p.holders &= ~bit;
    p.owners &= ~bit;
    p.dirty &= ~bit;
    if (state != LineState::Invalid)
        p.holders |= bit;
    if (isOwned(state))
        p.owners |= bit;
    if (state == LineState::Dirty)
        p.dirty |= bit;
    if (p.holders == 0)
        erase(idx);
}

void
PresenceTable::erase(std::size_t idx)
{
    // Backward-shift deletion: pull each later member of the probe run
    // into the hole unless the hole lies before its home slot.
    --size_;
    std::size_t hole = idx;
    for (std::size_t next = (hole + 1) & mask_;
         slots_[next].blk != kEmpty; next = (next + 1) & mask_) {
        const std::size_t want = home(slots_[next].blk);
        if (((next - want) & mask_) >= ((next - hole) & mask_)) {
            slots_[hole] = slots_[next];
            hole = next;
        }
    }
    slots_[hole] = Slot{};
}

void
PresenceTable::grow()
{
    const std::size_t old_capacity = mask_ + 1;
    std::unique_ptr<Slot[]> old = std::move(slots_);
    slots_.reset(new Slot[old_capacity * 2]);
    mask_ = old_capacity * 2 - 1;
    for (std::size_t i = 0; i < old_capacity; ++i)
        if (old[i].blk != kEmpty)
            slots_[probe(old[i].blk)] = old[i];
}

SetAssocCache::SetAssocCache(std::uint32_t capacity_bytes,
                             std::uint32_t associativity,
                             PresenceTable *presence, std::uint32_t node)
    : ways_(associativity), presence_(presence), node_(node)
{
    const std::uint32_t line_count = capacity_bytes / kBlockBytes;
    // No line (a capacity under one block) means no set; 0 would pass
    // the power-of-two test below.
    if (associativity == 0 || line_count == 0 ||
        line_count % associativity != 0)
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
        setLine(*slot, LineState::Invalid);
    }
    slot->tag = blk;
    setLine(*slot, state);
    slot->lastUse = ++useClock_;
    ++stats_.misses;
}

void
SetAssocCache::setState(BlockId blk, LineState state)
{
    Line *line = find(blk);
    ABSIM_DCHECK(line != nullptr, "setState of absent block " << blk);
    setLine(*line, state);
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
    setLine(*line, LineState::Invalid);
    ++stats_.invalidationsReceived;
    return true;
}

} // namespace absim::mem
