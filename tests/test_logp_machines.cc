/**
 * @file
 * Scripted scenarios for the LogP and LogP+C machines: local vs remote
 * reference costs, the ideal-cache semantics (free coherence, charged
 * true communication), and the paper's canonical upgrade example.
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

constexpr std::uint64_t kAfter = 1'000'000;

TEST(LogPStack, LocalReferencesNeverTouchTheNetwork)
{
    MachineHarness h(MachineKind::LogP, TopologyKind::Full, 2);
    rt::SharedArray<std::uint64_t> a(h.heap, 8, rt::Placement::OnNode, 0);
    h.run([&](rt::Proc &p) {
        if (p.node() != 0)
            return;
        for (std::size_t i = 0; i < 8; ++i)
            a.read(p, i);
    });
    EXPECT_EQ(h.machine->stats().messages, 0u);
    EXPECT_EQ(h.machine->stats().localMem, 8u);
    EXPECT_EQ(h.runtime->proc(0).stats().busy,
              8 * mach::kLocalMemNs);
}

TEST(LogPStack, EveryRemoteReferenceIsARoundTrip)
{
    // No cache: 8 reads of the same remote word are 8 round trips —
    // the paper's NUMA (Butterfly GP-1000) behaviour.
    MachineHarness h(MachineKind::LogP, TopologyKind::Full, 2);
    rt::SharedArray<std::uint64_t> a(h.heap, 8, rt::Placement::OnNode, 1);
    h.run([&](rt::Proc &p) {
        if (p.node() != 0)
            return;
        for (int i = 0; i < 8; ++i)
            a.read(p, 0);
    });
    EXPECT_EQ(h.machine->stats().messages, 16u);
    EXPECT_EQ(h.machine->stats().networkAccesses, 8u);
    // Latency is 2L per reference regardless of message size.
    EXPECT_EQ(h.runtime->proc(0).stats().latency, 8 * 3200u);
}

TEST(LogPStack, RoundTripGatedBySinglePolicy)
{
    // Full network at P=2: g = 1600.  Reply send waits g after the
    // receive at the same node.
    MachineHarness h(MachineKind::LogP, TopologyKind::Full, 2);
    rt::SharedArray<std::uint64_t> a(h.heap, 4, rt::Placement::OnNode, 1);
    h.run([&](rt::Proc &p) {
        if (p.node() == 0)
            a.read(p, 0);
    });
    const auto &s = h.runtime->proc(0).stats();
    EXPECT_EQ(s.latency, 3200u);
    EXPECT_EQ(s.contention, 1600u); // g between recv and reply send.
}

TEST(LogPStack, PerDirectionPolicyRemovesReplyGate)
{
    MachineHarness h(MachineKind::LogP, TopologyKind::Full, 2,
                     logp::GapPolicy::PerDirection);
    rt::SharedArray<std::uint64_t> a(h.heap, 4, rt::Placement::OnNode, 1);
    h.run([&](rt::Proc &p) {
        if (p.node() == 0)
            a.read(p, 0);
    });
    EXPECT_EQ(h.runtime->proc(0).stats().contention, 0u);
}

TEST(LogPCStack, CacheHitsAfterFirstMiss)
{
    MachineHarness h(MachineKind::LogPC, TopologyKind::Full, 2);
    rt::SharedArray<std::uint64_t> a(h.heap, 8, rt::Placement::OnNode, 1);
    h.run([&](rt::Proc &p) {
        if (p.node() != 0)
            return;
        for (int i = 0; i < 8; ++i)
            a.read(p, 0); // 1 miss + 7 hits.
        for (std::size_t i = 1; i < 4; ++i)
            a.read(p, i); // Same block: hits (spatial locality).
    });
    EXPECT_EQ(h.machine->stats().messages, 2u);
    EXPECT_EQ(h.machine->stats().cacheHits, 10u);
    EXPECT_EQ(h.machine->stats().readMisses, 1u);
}

TEST(LogPCStack, PaperUpgradeExampleNoNetworkAccess)
{
    // Section 3.2's example: a block valid in two caches; one processor
    // writes.  Target sends invalidations; LogP+C performs the same
    // state change with NO network access.  A read by the other
    // processor afterwards is a network access on both.
    MachineHarness h(MachineKind::LogPC, TopologyKind::Full, 4);
    rt::SharedArray<std::uint64_t> a(h.heap, 4, rt::Placement::OnNode, 2);
    const auto blk = mem::blockOf(a.addrOf(0));
    std::uint64_t msgs_after_write = 0;
    h.run([&](rt::Proc &p) {
        if (p.node() <= 1) {
            a.read(p, 0); // Both cache the block.
            if (p.node() == 0) {
                p.compute(kAfter);
                a.write(p, 0, 3); // Upgrade: free and instantaneous.
                msgs_after_write = h.machine->stats().messages;
            } else {
                p.compute(2 * kAfter);
                EXPECT_EQ(a.read(p, 0), 3u); // Re-fetch from owner.
            }
        }
    });
    // Two read misses to home 2, then node 1's re-fetch from owner 0:
    // the upgrade added nothing.
    EXPECT_EQ(msgs_after_write, 4u);
    EXPECT_EQ(h.machine->stats().messages, 6u);
    EXPECT_EQ(h.machine->stats().upgrades, 1u);
    EXPECT_EQ(h.machine->stats().invalidations, 1u);
    // Berkeley transitions maintained: owner degraded to SharedDirty.
    EXPECT_EQ(h.logpc().cache(0).stateOf(blk), LineState::SharedDirty);
    EXPECT_EQ(h.logpc().cache(1).stateOf(blk), LineState::Valid);
}

TEST(LogPCStack, LocalMissCostsLocalMemoryOnly)
{
    MachineHarness h(MachineKind::LogPC, TopologyKind::Full, 2);
    rt::SharedArray<std::uint64_t> a(h.heap, 4, rt::Placement::OnNode, 0);
    h.run([&](rt::Proc &p) {
        if (p.node() == 0)
            a.read(p, 0);
    });
    EXPECT_EQ(h.machine->stats().messages, 0u);
    EXPECT_EQ(h.machine->stats().localMem, 1u);
    EXPECT_EQ(h.runtime->proc(0).stats().latency, 0u);
}

TEST(LogPCStack, RemoteDirtyFetchIsChargedEvenFromHomeNode)
{
    // True communication must cost even in the ideal model: the home
    // node's own miss goes to the remote owner.
    MachineHarness h(MachineKind::LogPC, TopologyKind::Full, 2);
    rt::SharedArray<std::uint64_t> a(h.heap, 4, rt::Placement::OnNode, 0);
    h.run([&](rt::Proc &p) {
        if (p.node() == 1) {
            a.write(p, 0, 11); // Remote write miss; node 1 owns dirty.
        } else {
            p.compute(kAfter);
            EXPECT_EQ(a.read(p, 0), 11u); // Home must fetch from owner.
        }
    });
    // Write miss round trip (2) + owner fetch round trip (2).
    EXPECT_EQ(h.machine->stats().messages, 4u);
    EXPECT_EQ(h.runtime->proc(0).stats().latency, 3200u);
}

TEST(LogPCStack, WritebacksAreFreeAndSilent)
{
    MachineHarness h(MachineKind::LogPC, TopologyKind::Full, 2);
    const std::uint64_t stride = 64 * 1024 / 8;
    rt::SharedArray<std::uint64_t> a(h.heap, 3 * stride,
                                     rt::Placement::OnNode, 1);
    std::uint64_t msgs_before_refetch = 0;
    h.run([&](rt::Proc &p) {
        if (p.node() != 0)
            return;
        a.write(p, 0, 1);
        a.write(p, stride, 2);
        a.write(p, 2 * stride, 3); // Evicts dirty block 0 for free.
        msgs_before_refetch = h.machine->stats().messages;
        EXPECT_EQ(a.read(p, 0), 1u); // Data teleported home.
    });
    EXPECT_EQ(msgs_before_refetch, 6u); // 3 write-miss round trips.
    EXPECT_EQ(h.machine->stats().messages, 8u); // + re-read round trip.
    EXPECT_EQ(h.machine->stats().writebacks, 0u);
}

TEST(LogPCStack, TimingInvariantHolds)
{
    MachineHarness h(MachineKind::LogPC, TopologyKind::Hypercube, 4);
    rt::SharedArray<std::uint64_t> a(h.heap, 128,
                                     rt::Placement::Interleaved);
    h.run([&](rt::Proc &p) {
        for (std::size_t i = 0; i < 48; ++i) {
            a.fetchAdd(p, (i * 5 + p.node()) % 128, 1);
            p.compute(7);
        }
    });
    for (std::uint32_t n = 0; n < 4; ++n) {
        const auto &s = h.runtime->proc(n).stats();
        EXPECT_EQ(s.finishTime, s.busy + s.latency + s.contention);
    }
}

TEST(LogPStack, TimingInvariantHolds)
{
    MachineHarness h(MachineKind::LogP, TopologyKind::Mesh2D, 4);
    rt::SharedArray<std::uint64_t> a(h.heap, 64,
                                     rt::Placement::Interleaved);
    h.run([&](rt::Proc &p) {
        for (std::size_t i = 0; i < 32; ++i) {
            a.write(p, (i + p.node() * 3) % 64, i);
            p.compute(5);
        }
    });
    for (std::uint32_t n = 0; n < 4; ++n) {
        const auto &s = h.runtime->proc(n).stats();
        EXPECT_EQ(s.finishTime, s.busy + s.latency + s.contention);
    }
}

} // namespace
