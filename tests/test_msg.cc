/**
 * @file
 * Tests for the message-passing substrate: messages priced by a
 * registry row's network model, blocking send/recv semantics, FIFO
 * channels, typed helpers, and the wait-bucket accounting.
 */

#include <gtest/gtest.h>

#include <memory>

#include "machines/registry.hh"
#include "msg/msg_world.hh"
#include "runtime/shared.hh"

namespace {

using namespace absim;
using mach::MachineKind;

/** Message-passing fixture: a registry row's machine, whose network
 *  model prices the messages, + world. */
struct MsgHarness
{
    MsgHarness(std::uint32_t nodes, MachineKind kind,
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

TEST(MsgWorld, ValueRoundTrip)
{
    for (const MachineKind kind : mach::allQuadrants()) {
        MsgHarness h(2, kind);
        std::uint64_t got = 0;
        h.run([&](rt::Proc &p) {
            if (p.node() == 0)
                h.world->sendValue<std::uint64_t>(p, 1, 7, 0xDEADBEEF);
            else
                got = h.world->recvValue<std::uint64_t>(p, 0, 7);
        });
        EXPECT_EQ(got, 0xDEADBEEFu) << mach::toString(kind);
        EXPECT_EQ(h.world->messagesSent(), 1u);
    }
}

TEST(MsgWorld, DetailedSenderBlockedForFullTransfer)
{
    for (const MachineKind kind :
         {MachineKind::Target, MachineKind::TargetIC}) {
        MsgHarness h(2, kind);
        sim::Tick sender_done = 0;
        h.run([&](rt::Proc &p) {
            if (p.node() == 0) {
                std::uint8_t data[32] = {};
                h.world->send(p, 1, 0, data, 32);
                sender_done = p.localTime();
            } else {
                h.world->recv(p, 0, 0);
            }
        });
        // 32 B at 20 MB/s.
        EXPECT_EQ(sender_done, 1600u) << mach::toString(kind);
        const auto &s = h.runtime->proc(0).stats();
        EXPECT_EQ(s.latency, 1600u) << mach::toString(kind);
        EXPECT_EQ(s.wait, 0u) << mach::toString(kind);
    }
}

TEST(MsgWorld, LogPSenderFreedAtSendSlot)
{
    for (const MachineKind kind :
         {MachineKind::LogP, MachineKind::LogPC, MachineKind::LogPDir}) {
        MsgHarness h(2, kind);
        sim::Tick sender_done = 0;
        h.run([&](rt::Proc &p) {
            if (p.node() == 0) {
                std::uint8_t data[32] = {};
                h.world->send(p, 1, 0, data, 32);
                sender_done = p.localTime();
            } else {
                h.world->recv(p, 0, 0);
            }
        });
        // First message: no gate wait, o = 0: the sender continues at
        // once while the message is in flight for L.
        EXPECT_EQ(sender_done, 0u) << mach::toString(kind);
        // The blocked receiver absorbs the flight time as latency.
        EXPECT_EQ(h.runtime->proc(1).stats().latency, 1600u)
            << mach::toString(kind);
    }
}

TEST(MsgWorld, ReceiverWaitsForLateSender)
{
    MsgHarness h(2, MachineKind::Target);
    h.run([&](rt::Proc &p) {
        if (p.node() == 0) {
            p.compute(10000); // 300 us of work before sending.
            std::uint8_t data[8] = {};
            h.world->send(p, 1, 3, data, 8);
        } else {
            h.world->recv(p, 0, 3);
        }
    });
    const auto &receiver = h.runtime->proc(1).stats();
    // Receiver idled for the sender's compute; detailed-transport
    // delivery charges no latency to the receiver.
    EXPECT_EQ(receiver.wait, sim::cycles(10000) + 400);
    EXPECT_EQ(receiver.finishTime,
              receiver.busy + receiver.latency + receiver.contention +
                  receiver.wait);
}

TEST(MsgWorld, EarlyMessageCostsReceiverNothing)
{
    MsgHarness h(2, MachineKind::Target);
    h.run([&](rt::Proc &p) {
        if (p.node() == 0) {
            std::uint8_t data[8] = {};
            h.world->send(p, 1, 3, data, 8);
        } else {
            p.compute(100000); // Message long since delivered.
            h.world->recv(p, 0, 3);
        }
    });
    const auto &receiver = h.runtime->proc(1).stats();
    EXPECT_EQ(receiver.wait, 0u);
    EXPECT_EQ(receiver.latency, 0u);
}

TEST(MsgWorld, ChannelsAreFifoAndTagSeparated)
{
    MsgHarness h(2, MachineKind::Target);
    std::vector<std::uint64_t> got;
    h.run([&](rt::Proc &p) {
        if (p.node() == 0) {
            h.world->sendValue<std::uint64_t>(p, 1, /*tag=*/1, 10);
            h.world->sendValue<std::uint64_t>(p, 1, /*tag=*/2, 99);
            h.world->sendValue<std::uint64_t>(p, 1, /*tag=*/1, 11);
            h.world->sendValue<std::uint64_t>(p, 1, /*tag=*/1, 12);
        } else {
            got.push_back(h.world->recvValue<std::uint64_t>(p, 0, 1));
            got.push_back(h.world->recvValue<std::uint64_t>(p, 0, 1));
            got.push_back(h.world->recvValue<std::uint64_t>(p, 0, 1));
            got.push_back(h.world->recvValue<std::uint64_t>(p, 0, 2));
        }
    });
    EXPECT_EQ(got, (std::vector<std::uint64_t>{10, 11, 12, 99}));
}

TEST(MsgWorld, RingPassesTokenAroundAllNodes)
{
    for (const MachineKind kind : {MachineKind::Target, MachineKind::LogP}) {
        MsgHarness h(8, kind, net::TopologyKind::Hypercube);
        std::uint64_t final_token = 0;
        h.run([&](rt::Proc &p) {
            const std::uint32_t n = p.procs();
            const net::NodeId next = (p.node() + 1) % n;
            const net::NodeId prev = (p.node() + n - 1) % n;
            if (p.node() == 0) {
                h.world->sendValue<std::uint64_t>(p, next, 0, 1);
                final_token =
                    h.world->recvValue<std::uint64_t>(p, prev, 0);
            } else {
                const auto token =
                    h.world->recvValue<std::uint64_t>(p, prev, 0);
                h.world->sendValue<std::uint64_t>(p, next, 0, token + 1);
            }
        });
        EXPECT_EQ(final_token, 8u);
        EXPECT_EQ(h.world->messagesSent(), 8u);
    }
}

TEST(MsgWorld, AccountingInvariantAcrossBusyTraffic)
{
    MsgHarness h(4, MachineKind::LogP, net::TopologyKind::Mesh2D);
    h.run([&](rt::Proc &p) {
        // All-to-all exchange rounds with skewed compute.
        for (int round = 0; round < 5; ++round) {
            p.compute(100 * (p.node() + 1));
            for (std::uint32_t d = 0; d < 4; ++d) {
                if (d == p.node())
                    continue;
                h.world->sendValue<std::uint32_t>(
                    p, d, static_cast<msg::Tag>(round),
                    p.node() * 100 + d);
            }
            for (std::uint32_t s = 0; s < 4; ++s) {
                if (s == p.node())
                    continue;
                const auto v = h.world->recvValue<std::uint32_t>(
                    p, s, static_cast<msg::Tag>(round));
                EXPECT_EQ(v, s * 100 + p.node());
            }
        }
    });
    for (std::uint32_t n = 0; n < 4; ++n) {
        const auto &s = h.runtime->proc(n).stats();
        EXPECT_EQ(s.finishTime,
                  s.busy + s.latency + s.contention + s.wait)
            << "proc " << n;
    }
}

} // namespace
