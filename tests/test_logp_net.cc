/**
 * @file
 * Unit tests for the LogP gates and network timing: the g-gap semantics
 * under both usage policies, and the latency/contention split of
 * messages and round trips.
 */

#include <gtest/gtest.h>

#include "logp/gate.hh"
#include "logp/logp_net.hh"

namespace {

using namespace absim;
using logp::GapPolicy;
using logp::GateSet;
using logp::LogPNetwork;
using logp::LogPParams;

TEST(GateSet, FirstReservationIsNeverGated)
{
    GateSet gates(2, 1000, GapPolicy::Single);
    const auto r = gates.reserveSend(0, 500);
    EXPECT_EQ(r.when, 500u);
    EXPECT_EQ(r.waited, 0u);
}

TEST(GateSet, ConsecutiveOpsSpacedByG)
{
    GateSet gates(2, 1000, GapPolicy::Single);
    gates.reserveSend(0, 0);
    const auto r2 = gates.reserveSend(0, 100);
    EXPECT_EQ(r2.when, 1000u);
    EXPECT_EQ(r2.waited, 900u);
    const auto r3 = gates.reserveSend(0, 5000); // Past the gate: free.
    EXPECT_EQ(r3.when, 5000u);
    EXPECT_EQ(r3.waited, 0u);
}

TEST(GateSet, SinglePolicyGatesSendsAgainstReceives)
{
    GateSet gates(2, 1000, GapPolicy::Single);
    gates.reserveRecv(0, 0);
    const auto send = gates.reserveSend(0, 1);
    EXPECT_EQ(send.when, 1000u); // The LogP-definition pessimism.
}

TEST(GateSet, PerDirectionPolicyDoesNot)
{
    GateSet gates(2, 1000, GapPolicy::PerDirection);
    gates.reserveRecv(0, 0);
    const auto send = gates.reserveSend(0, 1);
    EXPECT_EQ(send.when, 1u); // Section 7 relaxation.
    const auto send2 = gates.reserveSend(0, 2);
    EXPECT_EQ(send2.when, 1001u); // Same-kind ops still gated.
}

TEST(GateSet, NodesAreIndependent)
{
    GateSet gates(3, 1000, GapPolicy::Single);
    gates.reserveSend(0, 0);
    const auto other = gates.reserveSend(1, 1);
    EXPECT_EQ(other.when, 1u);
}

TEST(LogPNet, UncontendedMessageCostsL)
{
    LogPParams params{.l = 1600, .o = 0, .g = 400, .p = 4};
    LogPNetwork net(params, GapPolicy::Single);
    const auto t = net.message(0, 1, 0);
    EXPECT_EQ(t.deliveredAt, 1600u);
    EXPECT_EQ(t.latency, 1600u);
    EXPECT_EQ(t.contention, 0u);
    EXPECT_EQ(t.messages, 1u);
}

TEST(LogPNet, OverheadAddsToDeliveryNotLatency)
{
    LogPParams params{.l = 1600, .o = 100, .g = 0, .p = 4};
    LogPNetwork net(params, GapPolicy::Single);
    const auto t = net.message(0, 1, 0);
    EXPECT_EQ(t.deliveredAt, 1800u); // o + L + o.
    EXPECT_EQ(t.latency, 1600u);
}

TEST(LogPNet, RoundTripReplyGatedBehindReceive)
{
    // Single policy: after B receives at L, its reply send waits g.
    LogPParams params{.l = 1600, .o = 0, .g = 400, .p = 4};
    LogPNetwork net(params, GapPolicy::Single);
    const auto t = net.roundTrip(0, 1, 0);
    // req: send 0, arrive 1600; reply: send 2000 (g after recv),
    // arrive 3600; A's recv gate: last was its send at 0 -> 3600 ok.
    EXPECT_EQ(t.deliveredAt, 3600u);
    EXPECT_EQ(t.latency, 3200u);
    EXPECT_EQ(t.contention, 400u);
    EXPECT_EQ(t.messages, 2u);
}

TEST(LogPNet, RoundTripPerDirectionAvoidsReplyGate)
{
    LogPParams params{.l = 1600, .o = 0, .g = 400, .p = 4};
    LogPNetwork net(params, GapPolicy::PerDirection);
    const auto t = net.roundTrip(0, 1, 0);
    EXPECT_EQ(t.deliveredAt, 3200u);
    EXPECT_EQ(t.contention, 0u);
}

TEST(LogPNet, ConcurrentSendersQueueAtReceiverGate)
{
    LogPParams params{.l = 1600, .o = 0, .g = 1000, .p = 4};
    LogPNetwork net(params, GapPolicy::Single);
    const auto first = net.message(0, 2, 0);
    const auto second = net.message(1, 2, 0);
    EXPECT_EQ(first.deliveredAt, 1600u);
    // Receiver gate holds the second delivery g after the first.
    EXPECT_EQ(second.deliveredAt, 2600u);
    EXPECT_EQ(second.contention, 1000u);
}

TEST(LogPNet, StatsAccumulate)
{
    LogPParams params{.l = 1600, .o = 0, .g = 100, .p = 2};
    LogPNetwork net(params, GapPolicy::Single);
    net.roundTrip(0, 1, 0);
    net.roundTrip(0, 1, 10000);
    EXPECT_EQ(net.stats().messages, 4u);
    EXPECT_EQ(net.stats().latency, 4 * 1600u);
}

TEST(GateSet, BisectionOnlyPolicyUsesTheSingleGate)
{
    GateSet gates(2, 1000, GapPolicy::BisectionOnly);
    gates.reserveRecv(0, 0);
    const auto send = gates.reserveSend(0, 1);
    EXPECT_EQ(send.when, 1000u); // Shared per-node gate, like Single.
}

TEST(CrossesBisection, AddressHalvesOnFullAndCube)
{
    for (const auto kind :
         {net::TopologyKind::Full, net::TopologyKind::Hypercube}) {
        EXPECT_TRUE(logp::crossesBisection(kind, 8, 0, 4));
        EXPECT_TRUE(logp::crossesBisection(kind, 8, 7, 3));
        EXPECT_FALSE(logp::crossesBisection(kind, 8, 0, 3));
        EXPECT_FALSE(logp::crossesBisection(kind, 8, 4, 7));
    }
}

TEST(CrossesBisection, MeshCutsBetweenMiddleColumns)
{
    // 4x4 mesh: columns 0-1 vs 2-3.
    EXPECT_TRUE(logp::crossesBisection(net::TopologyKind::Mesh2D, 16,
                                       1, 2));
    EXPECT_FALSE(logp::crossesBisection(net::TopologyKind::Mesh2D, 16,
                                        0, 5)); // Cols 0 and 1.
    EXPECT_FALSE(logp::crossesBisection(net::TopologyKind::Mesh2D, 16,
                                        2, 15)); // Cols 2 and 3.
    // Neighbors within a column never cross.
    EXPECT_FALSE(logp::crossesBisection(net::TopologyKind::Mesh2D, 16,
                                        0, 4));
}

TEST(CrossesBisection, SingleNodeNeverCrosses)
{
    EXPECT_FALSE(
        logp::crossesBisection(net::TopologyKind::Full, 1, 0, 0));
}

TEST(LogPNet, BisectionOnlyPolicySkipsGatesForLocalTraffic)
{
    LogPParams params = logp::paramsFor(net::TopologyKind::Hypercube, 8);
    LogPNetwork net(params, GapPolicy::BisectionOnly);
    // Nodes 0 and 1 are on the same side of the cut: no gating at all.
    const auto t1 = net.roundTrip(0, 1, 0);
    EXPECT_EQ(t1.contention, 0u);
    const auto t2 = net.roundTrip(0, 1, t1.deliveredAt);
    EXPECT_EQ(t2.contention, 0u);
    // Crossing traffic is still gated (reply waits g after receive).
    const auto t3 = net.roundTrip(0, 4, t2.deliveredAt);
    EXPECT_EQ(t3.contention, params.g);
}

/** Parameterized property: contention is always when-earliest and the
 *  same node is never granted two slots closer than g (single policy). */
class GateSequence : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(GateSequence, GrantsRespectMinimumSpacing)
{
    const std::uint64_t g = GetParam();
    GateSet gates(1, g, GapPolicy::Single);
    std::uint64_t last = 0;
    bool first = true;
    std::uint64_t ask = 0;
    for (int i = 0; i < 100; ++i) {
        ask += (i * 37) % 523; // Irregular request times.
        const auto r = gates.reserveSend(0, ask);
        EXPECT_GE(r.when, ask);
        EXPECT_EQ(r.waited, r.when - ask);
        if (!first) {
            EXPECT_GE(r.when - last, g);
        }
        last = r.when;
        first = false;
    }
}

INSTANTIATE_TEST_SUITE_P(Gaps, GateSequence,
                         ::testing::Values(0u, 100u, 800u, 1600u, 6400u));

} // namespace
