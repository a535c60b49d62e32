/**
 * @file
 * Additional message-passing coverage: large payloads, many concurrent
 * channels, network counters, and LogP gate interaction between
 * successive sends.
 */

#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "machines/registry.hh"
#include "msg/msg_world.hh"
#include "runtime/shared.hh"

namespace {

using namespace absim;
using mach::MachineKind;

struct Harness
{
    Harness(std::uint32_t nodes, MachineKind kind,
            net::TopologyKind topo = net::TopologyKind::Full)
        : heap(nodes),
          machine(mach::makeMachine(kind, eq, topo, nodes, heap))
    {
        world = std::make_unique<msg::MsgWorld>(eq, machine->netModel(),
                                                nodes);
        runtime = std::make_unique<rt::Runtime>(eq, *machine, nodes);
    }

    void
    run(std::function<void(rt::Proc &)> body)
    {
        runtime->spawn(std::move(body));
        runtime->run();
    }

    sim::EventQueue eq;
    rt::SharedHeap heap;
    std::unique_ptr<mach::ComposedMachine> machine;
    std::unique_ptr<msg::MsgWorld> world;
    std::unique_ptr<rt::Runtime> runtime;
};

TEST(MsgExtras, LargePayloadTimedBySizeOnDetailed)
{
    Harness h(2, MachineKind::Target);
    std::vector<double> got;
    h.run([&](rt::Proc &p) {
        if (p.node() == 0) {
            std::vector<double> row(256);
            std::iota(row.begin(), row.end(), 0.0);
            h.world->send(p, 1, 0, row.data(),
                          static_cast<std::uint32_t>(row.size() *
                                                     sizeof(double)));
            // 2048 bytes at 50 ns/B.
            EXPECT_EQ(p.localTime(), 2048u * 50u);
        } else {
            const auto bytes = h.world->recv(p, 0, 0);
            got.resize(bytes.size() / sizeof(double));
            std::memcpy(got.data(), bytes.data(), bytes.size());
        }
    });
    ASSERT_EQ(got.size(), 256u);
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], static_cast<double>(i));
}

TEST(MsgExtras, ManyConcurrentChannelsDoNotInterfere)
{
    Harness h(8, MachineKind::Target, net::TopologyKind::Hypercube);
    std::vector<std::uint64_t> sums(8, 0);
    h.run([&](rt::Proc &p) {
        // Everyone sends one tagged value to everyone else, then
        // receives from everyone else; per-pair channels.
        for (std::uint32_t d = 0; d < 8; ++d) {
            if (d == p.node())
                continue;
            h.world->sendValue<std::uint64_t>(p, d, 7,
                                              100 * p.node() + d);
        }
        std::uint64_t sum = 0;
        for (std::uint32_t s = 0; s < 8; ++s) {
            if (s == p.node())
                continue;
            sum += h.world->recvValue<std::uint64_t>(p, s, 7);
        }
        sums[p.node()] = sum;
    });
    for (std::uint32_t n = 0; n < 8; ++n) {
        std::uint64_t expect = 0;
        for (std::uint32_t s = 0; s < 8; ++s)
            if (s != n)
                expect += 100 * s + n;
        EXPECT_EQ(sums[n], expect) << "node " << n;
    }
    EXPECT_EQ(h.world->messagesSent(), 56u);
    EXPECT_EQ(dynamic_cast<const mach::DetailedNetModel &>(
                  h.machine->netModel())
                  .network()
                  .stats()
                  .messages,
              56u);
}

TEST(MsgExtras, LogPBackToBackSendsSpacedByG)
{
    Harness h(4, MachineKind::LogP, net::TopologyKind::Hypercube); // g = 1600.
    h.run([&](rt::Proc &p) {
        if (p.node() == 0) {
            const std::uint32_t v = 1;
            h.world->send(p, 1, 0, &v, 4);
            EXPECT_EQ(p.localTime(), 0u); // First send: free.
            h.world->send(p, 2, 0, &v, 4);
            // Second send waits for the sender's gate slot.
            EXPECT_EQ(p.localTime(), 1600u);
            EXPECT_EQ(p.stats().contention, 1600u);
        } else if (p.node() <= 2) {
            h.world->recv(p, 0, 0);
        }
    });
}

TEST(MsgExtras, WaitBucketExcludedFromSharedMemoryPath)
{
    // The shared-memory machines never use the wait bucket; only
    // message-passing receivers do.
    Harness h(2, MachineKind::Target);
    h.run([&](rt::Proc &p) {
        if (p.node() == 0) {
            p.compute(50000);
            const std::uint32_t v = 9;
            h.world->send(p, 1, 1, &v, 4);
        } else {
            h.world->recv(p, 0, 1);
        }
    });
    EXPECT_EQ(h.runtime->proc(0).stats().wait, 0u);
    EXPECT_GT(h.runtime->proc(1).stats().wait, 0u);
}

} // namespace
