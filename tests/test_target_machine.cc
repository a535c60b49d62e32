/**
 * @file
 * Scripted scenarios for the detailed target machine: cache hits/misses,
 * the Berkeley directory transactions (owner-supplied data, upgrades,
 * invalidations, writebacks) and their message/timing accounting.
 *
 * Workers order themselves with compute() delays: accesses execute in
 * global time order, so a processor computing longer acts later.
 */

#include <gtest/gtest.h>

#include "machine_fixture.hh"
#include "mem/addr.hh"

namespace {

using namespace absim;
using absim::test::MachineHarness;
using mach::MachineKind;
using mem::LineState;
using net::TopologyKind;

constexpr std::uint64_t kAfter = 1'000'000; // Cycles: "act second".

TEST(TargetStack, LocalMissThenHit)
{
    MachineHarness h(MachineKind::Target, TopologyKind::Full, 2);
    rt::SharedArray<std::uint64_t> a(h.heap, 8, rt::Placement::OnNode, 0);
    h.run([&](rt::Proc &p) {
        if (p.node() != 0)
            return;
        a.read(p, 0); // Local miss: memory access, no messages.
        a.read(p, 1); // Same block: hit.
    });
    const auto &stats = h.machine->stats();
    EXPECT_EQ(stats.accesses, 2u);
    EXPECT_EQ(stats.cacheHits, 1u);
    EXPECT_EQ(stats.readMisses, 1u);
    EXPECT_EQ(stats.messages, 0u);
    EXPECT_EQ(stats.localMem, 1u);
    EXPECT_EQ(stats.networkAccesses, 0u);
    EXPECT_EQ(h.target().cache(0).stateOf(mem::blockOf(a.addrOf(0))),
              LineState::Valid);
}

TEST(TargetStack, RemoteReadMissCostsRequestPlusData)
{
    MachineHarness h(MachineKind::Target, TopologyKind::Full, 2);
    rt::SharedArray<std::uint64_t> a(h.heap, 4, rt::Placement::OnNode, 1);
    h.run([&](rt::Proc &p) {
        if (p.node() != 0)
            return;
        a.read(p, 0);
    });
    const auto &proc = h.runtime->proc(0).stats();
    // 8 B request (400 ns) + 32 B data (1600 ns), uncontended.
    EXPECT_EQ(proc.latency, 2000u);
    EXPECT_EQ(proc.contention, 0u);
    EXPECT_EQ(h.machine->stats().messages, 2u);
    EXPECT_EQ(h.machine->stats().networkAccesses, 1u);
}

TEST(TargetStack, SpatialLocalityFourItemsPerBlock)
{
    MachineHarness h(MachineKind::Target, TopologyKind::Full, 2);
    rt::SharedArray<std::uint64_t> a(h.heap, 8, rt::Placement::OnNode, 1);
    h.run([&](rt::Proc &p) {
        if (p.node() != 0)
            return;
        for (std::size_t i = 0; i < 8; ++i)
            a.read(p, i); // 8-byte items: 4 per 32-byte block.
    });
    EXPECT_EQ(h.machine->stats().readMisses, 2u);
    EXPECT_EQ(h.machine->stats().cacheHits, 6u);
}

TEST(TargetStack, BerkeleyOwnerSuppliesData)
{
    MachineHarness h(MachineKind::Target, TopologyKind::Full, 4);
    rt::SharedArray<std::uint64_t> a(h.heap, 4, rt::Placement::OnNode, 2);
    const auto blk = mem::blockOf(a.addrOf(0));
    h.run([&](rt::Proc &p) {
        if (p.node() == 1) {
            a.write(p, 0, 7); // Node 1 becomes Dirty owner.
        } else if (p.node() == 0) {
            p.compute(kAfter);
            EXPECT_EQ(a.read(p, 0), 7u); // Served by the owner.
        }
    });
    // Owner degraded to SharedDirty, reader Valid, ownership kept.
    EXPECT_EQ(h.target().cache(1).stateOf(blk), LineState::SharedDirty);
    EXPECT_EQ(h.target().cache(0).stateOf(blk), LineState::Valid);
    ASSERT_NE(h.target().directory().peek(blk), nullptr);
    EXPECT_EQ(h.target().directory().peek(blk)->owner, 1);
    EXPECT_TRUE(h.target().directory().peek(blk)->isSharer(0));

    // The 3-hop read: req(8) to home 2, forward(8) to owner 1,
    // data(32) owner->reader.
    const auto &reader = h.runtime->proc(0).stats();
    EXPECT_EQ(reader.latency, 400u + 400u + 1600u);
}

TEST(TargetStack, UpgradeInvalidatesSharers)
{
    MachineHarness h(MachineKind::Target, TopologyKind::Full, 4);
    rt::SharedArray<std::uint64_t> a(h.heap, 4, rt::Placement::OnNode, 3);
    const auto blk = mem::blockOf(a.addrOf(0));
    h.run([&](rt::Proc &p) {
        if (p.node() <= 1) {
            a.read(p, 0); // Nodes 0 and 1 share the block.
            if (p.node() == 0) {
                p.compute(kAfter);
                a.write(p, 0, 9); // Upgrade: invalidate node 1.
            }
        }
    });
    EXPECT_EQ(h.target().cache(0).stateOf(blk), LineState::Dirty);
    EXPECT_EQ(h.target().cache(1).stateOf(blk), LineState::Invalid);
    EXPECT_EQ(h.machine->stats().upgrades, 1u);
    EXPECT_EQ(h.machine->stats().invalidations, 1u);
    const auto *entry = h.target().directory().peek(blk);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->owner, 0);
    EXPECT_FALSE(entry->isSharer(1));
}

TEST(TargetStack, WriteMissStealsOwnership)
{
    MachineHarness h(MachineKind::Target, TopologyKind::Full, 4);
    rt::SharedArray<std::uint64_t> a(h.heap, 4, rt::Placement::OnNode, 2);
    const auto blk = mem::blockOf(a.addrOf(0));
    h.run([&](rt::Proc &p) {
        if (p.node() == 1) {
            a.write(p, 0, 5);
        } else if (p.node() == 0) {
            p.compute(kAfter);
            a.write(p, 0, 6);
        }
    });
    EXPECT_EQ(h.target().cache(0).stateOf(blk), LineState::Dirty);
    EXPECT_EQ(h.target().cache(1).stateOf(blk), LineState::Invalid);
    EXPECT_EQ(h.target().directory().peek(blk)->owner, 0);
    EXPECT_EQ(a.raw(0), 6u);
}

TEST(TargetStack, ConflictEvictionWritesBackDirtyVictim)
{
    MachineHarness h(MachineKind::Target, TopologyKind::Full, 2);
    // Three blocks 64 KB apart land in the same set of the 2-way cache.
    const std::uint64_t stride = 64 * 1024 / 8; // uint64 elements.
    rt::SharedArray<std::uint64_t> a(h.heap, 3 * stride,
                                     rt::Placement::OnNode, 1);
    h.run([&](rt::Proc &p) {
        if (p.node() != 0)
            return;
        a.write(p, 0 * stride, 1);
        a.write(p, 1 * stride, 2);
        a.write(p, 2 * stride, 3); // Evicts block 0 (dirty).
        a.read(p, 0 * stride);     // Re-fetch; evicts block 1 (dirty).
    });
    EXPECT_EQ(h.machine->stats().writebacks, 2u);
    const auto blk0 = mem::blockOf(a.addrOf(0));
    const auto *entry = h.target().directory().peek(blk0);
    ASSERT_NE(entry, nullptr);
    // After writeback + re-read, memory owns and node 0 is a sharer.
    EXPECT_EQ(entry->owner, mem::DirectoryEntry::kNoOwner);
    EXPECT_TRUE(entry->isSharer(0));
    EXPECT_EQ(h.target().cache(0).stateOf(blk0), LineState::Valid);
}

TEST(TargetStack, RmwTakesExclusiveOwnership)
{
    MachineHarness h(MachineKind::Target, TopologyKind::Full, 2);
    rt::SharedArray<std::uint64_t> a(h.heap, 4, rt::Placement::OnNode, 1);
    const auto blk = mem::blockOf(a.addrOf(0));
    h.run([&](rt::Proc &p) {
        if (p.node() == 0)
            a.fetchAdd(p, 0, 1);
    });
    EXPECT_EQ(h.target().cache(0).stateOf(blk), LineState::Dirty);
    EXPECT_EQ(h.machine->stats().writeMisses, 1u);
    EXPECT_EQ(a.raw(0), 1u);
}

TEST(TargetStack, SequentialConsistencySingleLocation)
{
    // Two writers, one location: the final value is the later write, and
    // an interleaved reader can never observe a value that was not
    // written.
    MachineHarness h(MachineKind::Target, TopologyKind::Mesh2D, 4);
    rt::SharedArray<std::uint64_t> a(h.heap, 4, rt::Placement::OnNode, 3);
    std::vector<std::uint64_t> seen;
    h.run([&](rt::Proc &p) {
        if (p.node() == 0) {
            a.write(p, 0, 1);
        } else if (p.node() == 1) {
            p.compute(kAfter);
            a.write(p, 0, 2);
        } else if (p.node() == 2) {
            for (int i = 0; i < 10; ++i) {
                seen.push_back(a.read(p, 0));
                p.compute(kAfter / 5);
            }
        }
    });
    EXPECT_EQ(a.raw(0), 2u);
    for (std::size_t i = 1; i < seen.size(); ++i)
        EXPECT_LE(seen[i - 1], seen[i]) << "reader saw values go back";
}

TEST(TargetStack, InvalidationOfStaleSharerIsHarmless)
{
    // A clean (silently replaced) sharer stays in the directory; a later
    // write sends it a spurious invalidation that must be a no-op.
    MachineHarness h(MachineKind::Target, TopologyKind::Full, 2);
    const std::uint64_t stride = 64 * 1024 / 8;
    rt::SharedArray<std::uint64_t> a(h.heap, 3 * stride,
                                     rt::Placement::OnNode, 1);
    h.run([&](rt::Proc &p) {
        if (p.node() == 0) {
            a.read(p, 0);          // Share block 0.
            a.read(p, stride);     // Fill the set ...
            a.read(p, 2 * stride); // ... and silently evict block 0.
        } else {
            p.compute(kAfter);
            a.write(p, 0, 1); // Spurious invalidation to node 0.
        }
    });
    EXPECT_EQ(h.machine->stats().invalidations, 1u);
    EXPECT_EQ(a.raw(0), 1u);
    EXPECT_EQ(h.target().directory().peek(mem::blockOf(a.addrOf(0)))->owner,
              1);
}

TEST(TargetStack, ConfigurableCacheGeometry)
{
    // A 4 KB cache can only hold 128 blocks: streaming 256 distinct
    // blocks must evict, while the default 64 KB cache holds them all.
    MachineHarness small(MachineKind::Target, TopologyKind::Full, 2,
                         logp::GapPolicy::Single,
                         {.bytes = 4 * 1024, .ways = 2});
    MachineHarness big(MachineKind::Target, TopologyKind::Full, 2);
    const auto &small_cache = small.target().cache(0);
    const auto &big_cache = big.target().cache(0);
    EXPECT_EQ(small_cache.sets() * small_cache.ways(), 128u);
    EXPECT_EQ(big_cache.sets() * big_cache.ways(), 2048u);
}

TEST(TargetStack, SmallCacheEvictsWorkingSet)
{
    MachineHarness h(MachineKind::Target, TopologyKind::Full, 2,
                     logp::GapPolicy::Single, {.bytes = 1024, .ways = 2});
    // 64 blocks stream through a 32-line cache, twice: the second pass
    // misses again (capacity), unlike the default geometry.
    rt::SharedArray<std::uint64_t> a(h.heap, 64 * 4,
                                     rt::Placement::OnNode, 0);
    h.run([&](rt::Proc &p) {
        if (p.node() != 0)
            return;
        for (int pass = 0; pass < 2; ++pass)
            for (std::size_t b = 0; b < 64; ++b)
                a.read(p, b * 4);
    });
    EXPECT_EQ(h.machine->stats().readMisses, 128u);
    EXPECT_EQ(h.machine->stats().cacheHits, 0u);
}

TEST(TargetStack, TimingInvariantBusyLatencyContention)
{
    // Every tick of a processor's finish time is categorized.
    MachineHarness h(MachineKind::Target, TopologyKind::Mesh2D, 4);
    rt::SharedArray<std::uint64_t> a(h.heap, 256,
                                     rt::Placement::Interleaved);
    h.run([&](rt::Proc &p) {
        for (std::size_t i = 0; i < 64; ++i) {
            a.fetchAdd(p, (i * 7 + p.node() * 13) % 256, 1);
            p.compute(11);
        }
    });
    for (std::uint32_t n = 0; n < 4; ++n) {
        const auto &s = h.runtime->proc(n).stats();
        EXPECT_EQ(s.finishTime, s.busy + s.latency + s.contention)
            << "proc " << n;
    }
}

} // namespace
