/**
 * @file
 * Randomized property tests for the detailed network and the LogP
 * machines' analytic behaviour under load.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "machine_fixture.hh"
#include "net/network.hh"
#include "sim/rng.hh"

namespace {

using namespace absim;
using absim::test::MachineHarness;
using mach::MachineKind;
using net::TopologyKind;

class NetworkStorm
    : public ::testing::TestWithParam<std::tuple<TopologyKind,
                                                 std::uint64_t>>
{
};

TEST_P(NetworkStorm, ConservationAndBounds)
{
    const auto [kind, seed] = GetParam();
    sim::EventQueue eq;
    net::DetailedNetwork network(eq, net::Topology::make(kind, 16));
    sim::Rng rng(seed);

    constexpr int kPerProc = 20;
    std::uint64_t expect_bytes = 0;
    std::vector<net::TransferResult> results;
    results.reserve(15 * kPerProc);
    std::vector<std::unique_ptr<sim::Process>> procs;

    for (net::NodeId s = 0; s < 16; ++s) {
        std::vector<std::pair<net::NodeId, std::uint32_t>> plan;
        for (int i = 0; i < kPerProc; ++i) {
            net::NodeId dst;
            do {
                dst = static_cast<net::NodeId>(rng.below(16));
            } while (dst == s);
            const auto bytes =
                static_cast<std::uint32_t>(8 + 8 * rng.below(4));
            plan.emplace_back(dst, bytes);
            expect_bytes += bytes;
        }
        procs.push_back(std::make_unique<sim::Process>(
            eq, "p", [&network, &results, plan, s] {
                for (const auto &[dst, bytes] : plan)
                    results.push_back(network.send(s, dst, bytes).get());
            }));
        procs.back()->start(0);
    }
    eq.run();

    // Conservation: every byte accounted, latency = bytes * 50 ns.
    EXPECT_EQ(network.stats().bytes, expect_bytes);
    EXPECT_EQ(network.stats().messages, 16u * kPerProc);
    EXPECT_EQ(network.stats().latency, expect_bytes * 50);

    sim::Duration total_contention = 0;
    for (const auto &r : results)
        total_contention += r.contention;
    EXPECT_EQ(network.stats().contention, total_contention);

    // The run must drain (no deadlock) and end no earlier than the
    // serial lower bound of the busiest link could allow — a weak but
    // universal sanity bound: completion >= max single message time.
    EXPECT_GE(eq.now(), 32u * 50u);
}

INSTANTIATE_TEST_SUITE_P(
    Storms, NetworkStorm,
    ::testing::Combine(::testing::Values(TopologyKind::Full,
                                         TopologyKind::Hypercube,
                                         TopologyKind::Mesh2D),
                       ::testing::Values(11u, 22u, 33u)),
    [](const auto &info) {
        return net::toString(std::get<0>(info.param)) + "_s" +
               std::to_string(std::get<1>(info.param));
    });

TEST(LogPQueueing, HotspotGrantsAreGapSpaced)
{
    // N-1 processors hammer one home: under the single-gate policy the
    // home's gate serializes all requests/replies at rate g; the N-th
    // access completes no earlier than the queueing bound.
    constexpr std::uint32_t kProcs = 8;
    MachineHarness h(MachineKind::LogP, TopologyKind::Hypercube, kProcs);
    rt::SharedArray<std::uint64_t> hot(h.heap, 4, rt::Placement::OnNode,
                                       0);
    h.run([&](rt::Proc &p) {
        if (p.node() != 0)
            hot.read(p, 0);
    });
    // 7 concurrent round trips: the home's gate admits one event per
    // g = 1600 ns; each round trip needs 2 home-gate slots (recv+send),
    // so the last reply leaves the home no earlier than slot 13.
    const sim::Tick finish = h.eq.now();
    EXPECT_GE(finish, 1600u + 13u * 1600u);
    // And the total contention equals total time blocked minus pure
    // latency: accounting closure.
    for (std::uint32_t n = 1; n < kProcs; ++n) {
        const auto &s = h.runtime->proc(n).stats();
        EXPECT_EQ(s.finishTime, s.busy + s.latency + s.contention);
        EXPECT_EQ(s.latency, 3200u);
    }
}

TEST(LogPQueueing, BandwidthScalesWithG)
{
    // Aggregate throughput into one node is 1/g: halving g (full
    // network, doubled P) must roughly halve the hotspot makespan per
    // message.
    auto makespan_per_msg = [](std::uint32_t procs) {
        MachineHarness h(MachineKind::LogP, TopologyKind::Full, procs);
        rt::SharedArray<std::uint64_t> hot(h.heap, 4,
                                           rt::Placement::OnNode, 0);
        h.run([&](rt::Proc &p) {
            if (p.node() != 0)
                for (int i = 0; i < 4; ++i)
                    hot.read(p, 0);
        });
        return static_cast<double>(h.eq.now()) /
               (4.0 * (procs - 1));
    };
    const double at8 = makespan_per_msg(8);   // g = 400.
    const double at16 = makespan_per_msg(16); // g = 200.
    EXPECT_LT(at16, at8);
    EXPECT_NEAR(at16 / at8, 0.5, 0.2);
}

} // namespace
