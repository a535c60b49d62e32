/**
 * @file
 * Unit tests for the detailed circuit-switched network: transmission
 * timing, link contention accounting, and path overlap behaviour.
 */

#include <gtest/gtest.h>

#include "net/network.hh"
#include "sim/process.hh"

namespace {

using namespace absim;
using net::DetailedNetwork;
using net::NodeId;
using net::Topology;
using net::TopologyKind;
using net::TransferResult;

TEST(DetailedNetwork, TransmissionTimeIsSerial)
{
    EXPECT_EQ(DetailedNetwork::transmissionTime(32), 1600u);
    EXPECT_EQ(DetailedNetwork::transmissionTime(8), 400u);
}

TEST(DetailedNetwork, SingleTransferTiming)
{
    sim::EventQueue eq;
    DetailedNetwork net(eq, Topology::make(TopologyKind::Full, 4));
    TransferResult r;
    sim::Process p(eq, "p", [&] { r = net.send(0, 1, 32).get(); });
    p.start(0);
    eq.run();
    EXPECT_EQ(r.latency, 1600u);
    EXPECT_EQ(r.contention, 0u);
    EXPECT_EQ(eq.now(), 1600u);
    EXPECT_EQ(net.stats().messages, 1u);
    EXPECT_EQ(net.stats().bytes, 32u);
}

TEST(DetailedNetwork, HopCountDoesNotAddLatency)
{
    // Paper: switching delay negligible; transmission time dominates.
    sim::EventQueue eq;
    DetailedNetwork net(eq, Topology::make(TopologyKind::Mesh2D, 16));
    TransferResult r;
    sim::Process p(eq, "p", [&] { r = net.send(0, 15, 32).get(); });
    p.start(0);
    eq.run();
    EXPECT_EQ(r.latency, 1600u); // 6 hops, same time as 1.
}

TEST(DetailedNetwork, SharedLinkSerializesAndChargesContention)
{
    sim::EventQueue eq;
    // 1x2 mesh: one link each way between nodes 0 and 1.
    DetailedNetwork net(eq, Topology::make(TopologyKind::Mesh2D, 2));
    TransferResult r1, r2;
    sim::Process a(eq, "a", [&] { r1 = net.send(0, 1, 32).get(); });
    sim::Process b(eq, "b", [&] { r2 = net.send(0, 1, 32).get(); });
    a.start(0);
    b.start(0);
    eq.run();
    EXPECT_EQ(r1.contention, 0u);
    EXPECT_EQ(r2.contention, 1600u); // Waited for the full circuit.
    EXPECT_EQ(eq.now(), 3200u);
}

TEST(DetailedNetwork, OppositeDirectionsDoNotConflict)
{
    sim::EventQueue eq;
    DetailedNetwork net(eq, Topology::make(TopologyKind::Mesh2D, 2));
    TransferResult r1, r2;
    sim::Process a(eq, "a", [&] { r1 = net.send(0, 1, 32).get(); });
    sim::Process b(eq, "b", [&] { r2 = net.send(1, 0, 32).get(); });
    a.start(0);
    b.start(0);
    eq.run();
    EXPECT_EQ(r1.contention, 0u);
    EXPECT_EQ(r2.contention, 0u);
    EXPECT_EQ(eq.now(), 1600u);
}

TEST(DetailedNetwork, FullNetworkNeverContendsAcrossPairs)
{
    sim::EventQueue eq;
    DetailedNetwork net(eq, Topology::make(TopologyKind::Full, 8));
    std::vector<TransferResult> results(8);
    std::vector<std::unique_ptr<sim::Process>> procs;
    for (NodeId s = 0; s < 4; ++s) {
        procs.push_back(std::make_unique<sim::Process>(
            eq, "p", [&, s] { results[s] = net.send(s, s + 4, 32).get(); }));
        procs.back()->start(0);
    }
    eq.run();
    for (NodeId s = 0; s < 4; ++s)
        EXPECT_EQ(results[s].contention, 0u);
    EXPECT_EQ(eq.now(), 1600u); // All in parallel.
}

TEST(DetailedNetwork, MeshPathOverlapCreatesContention)
{
    sim::EventQueue eq;
    // 2x2 mesh: 0 1 / 2 3.  Routes 0->1 and 0->3 share link 0->east.
    DetailedNetwork net(eq, Topology::make(TopologyKind::Mesh2D, 4));
    TransferResult r1, r2;
    sim::Process a(eq, "a", [&] { r1 = net.send(0, 1, 32).get(); });
    sim::Process b(eq, "b", [&] { r2 = net.send(0, 3, 32).get(); });
    a.start(0);
    b.start(0);
    eq.run();
    EXPECT_EQ(r1.contention + r2.contention, 1600u);
}

TEST(DetailedNetwork, CircuitHoldsWholePath)
{
    // Wormhole/circuit switching: while 0->3 crosses the 2x2 mesh via
    // node 1, an independent 1->3 transfer must wait for the 1->south
    // link even though its own source is idle.
    sim::EventQueue eq;
    DetailedNetwork net(eq, Topology::make(TopologyKind::Mesh2D, 4));
    TransferResult cross, blocked;
    sim::Process a(eq, "a", [&] { cross = net.send(0, 3, 32).get(); });
    sim::Process b(eq, "b", [&] {
        sim::Process::current()->delay(100);
        blocked = net.send(1, 3, 32).get();
    });
    a.start(0);
    b.start(0);
    eq.run();
    EXPECT_EQ(cross.contention, 0u);
    EXPECT_EQ(blocked.contention, 1500u); // Until the circuit tears down.
}

TEST(DetailedNetwork, ManyConcurrentTransfersDrainDeadlockFree)
{
    // All-to-one hotspot on every topology: must complete.
    for (const auto kind : {TopologyKind::Full, TopologyKind::Hypercube,
                            TopologyKind::Mesh2D}) {
        sim::EventQueue eq;
        DetailedNetwork net(eq, Topology::make(kind, 16));
        int done = 0;
        std::vector<std::unique_ptr<sim::Process>> procs;
        for (NodeId s = 1; s < 16; ++s) {
            procs.push_back(std::make_unique<sim::Process>(
                eq, "p", [&, s] {
                    for (int i = 0; i < 4; ++i)
                        net.send(s, 0, 32).get();
                    ++done;
                }));
            procs.back()->start(0);
        }
        eq.run();
        EXPECT_EQ(done, 15) << net::toString(kind);
        EXPECT_EQ(net.stats().messages, 60u);
    }
}

} // namespace
