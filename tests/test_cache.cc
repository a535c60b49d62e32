/**
 * @file
 * Unit tests for the set-associative Berkeley-state cache model.
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"

namespace {

using namespace absim::mem;

TEST(Cache, PaperGeometry)
{
    SetAssocCache cache; // 64 KB, 2-way, 32 B blocks.
    EXPECT_EQ(cache.ways(), 2u);
    EXPECT_EQ(cache.sets(), 1024u);
}

TEST(Cache, RejectsBadGeometry)
{
    EXPECT_THROW(SetAssocCache(64 * 1024, 0), std::invalid_argument);
    // 4 lines are not divisible into 3 ways.
    EXPECT_THROW(SetAssocCache(128, 3), std::invalid_argument);
    // 6 lines / 2 ways = 3 sets: not a power of two.
    EXPECT_THROW(SetAssocCache(192, 2), std::invalid_argument);
    // Zero sets: no capacity, or less than one block.
    for (const std::uint32_t bytes : {0u, kBlockBytes - 1}) {
        try {
            SetAssocCache cache(bytes, 2);
            ADD_FAILURE() << bytes << " bytes built a cache";
        } catch (const std::invalid_argument &e) {
            EXPECT_STREQ(e.what(), "bad cache geometry");
        }
    }
}

TEST(Cache, MissOnCold)
{
    SetAssocCache cache;
    EXPECT_EQ(cache.stateOf(42), LineState::Invalid);
    EXPECT_FALSE(cache.hasReadable(42));
    EXPECT_FALSE(cache.hasWritable(42));
}

TEST(Cache, InstallMakesReadable)
{
    SetAssocCache cache;
    cache.install(42, LineState::Valid);
    EXPECT_EQ(cache.stateOf(42), LineState::Valid);
    EXPECT_TRUE(cache.hasReadable(42));
    EXPECT_FALSE(cache.hasWritable(42)); // Valid is not writable.
    cache.setState(42, LineState::Dirty);
    EXPECT_TRUE(cache.hasWritable(42));
}

TEST(Cache, StateHelpers)
{
    EXPECT_TRUE(isOwned(LineState::Dirty));
    EXPECT_TRUE(isOwned(LineState::SharedDirty));
    EXPECT_FALSE(isOwned(LineState::Valid));
    EXPECT_FALSE(isOwned(LineState::Invalid));
}

TEST(Cache, VictimForNeedsEvictionOnlyWhenSetFull)
{
    SetAssocCache cache(64, 2); // 2 lines, 1 set: everything conflicts.
    BlockId victim;
    LineState vstate;
    EXPECT_FALSE(cache.victimFor(1, victim, vstate));
    cache.install(1, LineState::Valid);
    EXPECT_FALSE(cache.victimFor(2, victim, vstate));
    cache.install(2, LineState::Dirty);
    EXPECT_TRUE(cache.victimFor(3, victim, vstate));
    EXPECT_EQ(victim, 1u); // LRU.
    EXPECT_EQ(vstate, LineState::Valid);
}

TEST(Cache, TouchChangesLruOrder)
{
    SetAssocCache cache(64, 2);
    cache.install(1, LineState::Valid);
    cache.install(2, LineState::Valid);
    cache.touch(1); // 2 becomes LRU.
    BlockId victim;
    LineState vstate;
    ASSERT_TRUE(cache.victimFor(3, victim, vstate));
    EXPECT_EQ(victim, 2u);
}

/** The victim inserting block 3 into a one-set, two-way cache evicts. */
BlockId
nextVictim(const SetAssocCache &cache)
{
    BlockId victim = 0;
    LineState vstate = LineState::Invalid;
    EXPECT_TRUE(cache.victimFor(3, victim, vstate));
    return victim;
}

TEST(Cache, AccessHitCountsAndRefreshesLru)
{
    // A read hit on Valid and a write hit on Dirty each count one hit
    // and make the line most recently used, so the victim is the other
    // way.
    SetAssocCache cache(64, 2); // 1 set.
    cache.install(1, LineState::Valid);
    cache.install(2, LineState::Dirty);
    EXPECT_EQ(cache.access(1, false), LineState::Valid);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(nextVictim(cache), 2u);
    EXPECT_EQ(cache.access(2, true), LineState::Dirty);
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(nextVictim(cache), 1u);
    // Absent blocks miss without side effects.
    EXPECT_EQ(cache.access(5, false), LineState::Invalid);
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(cache.stats().misses, 2u); // The two installs only.
}

TEST(Cache, AccessWriteToValidIsNoHit)
{
    // A write to a Valid line needs an upgrade: access reports the
    // state but leaves LRU and the hit counter alone.
    SetAssocCache cache(64, 2); // 1 set.
    cache.install(1, LineState::Valid);
    cache.install(2, LineState::Valid); // 1 is LRU.
    EXPECT_EQ(cache.access(1, true), LineState::Valid);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(nextVictim(cache), 1u);
    EXPECT_EQ(cache.stateOf(1), LineState::Valid);
}

TEST(Cache, InstallEvictsLru)
{
    SetAssocCache cache(64, 2);
    cache.install(1, LineState::Valid);
    cache.install(2, LineState::Valid);
    cache.install(3, LineState::Valid);
    EXPECT_EQ(cache.stateOf(1), LineState::Invalid);
    EXPECT_EQ(cache.stateOf(2), LineState::Valid);
    EXPECT_EQ(cache.stateOf(3), LineState::Valid);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.stats().dirtyEvictions, 0u);
}

TEST(Cache, DirtyEvictionCounted)
{
    SetAssocCache cache(64, 2);
    cache.install(1, LineState::Dirty);
    cache.install(2, LineState::SharedDirty);
    cache.install(3, LineState::Valid);
    EXPECT_EQ(cache.stats().dirtyEvictions, 1u);
}

TEST(Cache, ConflictOnlyWithinSet)
{
    SetAssocCache cache(128, 2); // 2 sets.
    // Blocks 0, 2, 4 map to set 0; block 1 to set 1.
    cache.install(0, LineState::Valid);
    cache.install(2, LineState::Valid);
    cache.install(1, LineState::Valid);
    cache.install(4, LineState::Valid); // Evicts from set 0 only.
    EXPECT_EQ(cache.stateOf(1), LineState::Valid);
    EXPECT_EQ(cache.stateOf(0), LineState::Invalid);
}

TEST(Cache, InvalidateIsIdempotentAndCounted)
{
    SetAssocCache cache;
    cache.install(7, LineState::Dirty);
    EXPECT_TRUE(cache.invalidate(7));
    EXPECT_EQ(cache.stateOf(7), LineState::Invalid);
    EXPECT_FALSE(cache.invalidate(7)); // Already gone: silent no-op.
    EXPECT_EQ(cache.stats().invalidationsReceived, 1u);
}

TEST(Cache, TagsDisambiguateBlocksInSameSet)
{
    SetAssocCache cache(64, 2); // 1 set.
    cache.install(5, LineState::Valid);
    EXPECT_EQ(cache.stateOf(5 + 1024), LineState::Invalid);
}

TEST(Cache, MissesCounted)
{
    SetAssocCache cache;
    cache.install(1, LineState::Valid);
    cache.install(2, LineState::Valid);
    EXPECT_EQ(cache.stats().misses, 2u);
}

/** Parameterized sweep: a working set within capacity never evicts. */
class CacheCapacity : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(CacheCapacity, WorkingSetWithinCapacityStaysResident)
{
    const std::uint32_t blocks = GetParam();
    SetAssocCache cache; // 2048 lines.
    // Sequential blocks spread evenly over sets: no conflicts below
    // capacity.
    for (std::uint32_t b = 0; b < blocks; ++b)
        cache.install(b, LineState::Valid);
    for (std::uint32_t b = 0; b < blocks; ++b)
        EXPECT_EQ(cache.stateOf(b), LineState::Valid);
    EXPECT_EQ(cache.stats().evictions, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CacheCapacity,
                         ::testing::Values(1u, 64u, 1024u, 2048u));

} // namespace
