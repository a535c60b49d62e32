/**
 * @file
 * Scenarios specific to the MSI protocol variant, plus the cross-
 * protocol relationships the protocol ablation relies on.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "machine_fixture.hh"
#include "mem/addr.hh"

namespace {

using namespace absim;
using mach::MachineKind;
using mach::ProtocolKind;
using mem::LineState;
using net::TopologyKind;

constexpr std::uint64_t kAfter = 1'000'000;

/** Harness with an MSI target machine. */
struct MsiHarness : absim::test::MachineHarness
{
    explicit MsiHarness(std::uint32_t procs,
                        TopologyKind topo = TopologyKind::Full)
        : MachineHarness(MachineKind::Target, topo, procs,
                         logp::GapPolicy::Single, {},
                         ProtocolKind::Msi)
    {
    }
};

TEST(MsiProtocol, ReadMissRecallsThroughMemory)
{
    MsiHarness h(4);
    rt::SharedArray<std::uint64_t> a(h.heap, 4, rt::Placement::OnNode, 2);
    const auto blk = mem::blockOf(a.addrOf(0));
    h.run([&](rt::Proc &p) {
        if (p.node() == 1) {
            a.write(p, 0, 7);
        } else if (p.node() == 0) {
            p.compute(kAfter);
            EXPECT_EQ(a.read(p, 0), 7u);
        }
    });
    // Ex-owner keeps a *clean* copy; no owner remains.
    EXPECT_EQ(h.target().cache(1).stateOf(blk), LineState::Valid);
    EXPECT_EQ(h.target().cache(0).stateOf(blk), LineState::Valid);
    ASSERT_NE(h.target().directory().peek(blk), nullptr);
    EXPECT_EQ(h.target().directory().peek(blk)->owner,
              mem::DirectoryEntry::kNoOwner);

    // Recall chain: req(8) + recall(8) + wb(32) + data(32).
    const auto &reader = h.runtime->proc(0).stats();
    EXPECT_EQ(reader.latency, 400u + 400u + 1600u + 1600u);
}

TEST(MsiProtocol, ReadMissCostsMoreThanBerkeley)
{
    // The same scenario under Berkeley is a 3-hop owner-supply: MSI's
    // recall through memory is strictly slower.
    auto latency_for = [](ProtocolKind protocol) {
        absim::test::MachineHarness h(MachineKind::Target,
                                      TopologyKind::Full, 4,
                                      logp::GapPolicy::Single, {}, protocol);
        rt::SharedArray<std::uint64_t> a(h.heap, 4, rt::Placement::OnNode,
                                         2);
        h.run([&](rt::Proc &p) {
            if (p.node() == 1) {
                a.write(p, 0, 7);
            } else if (p.node() == 0) {
                p.compute(kAfter);
                a.read(p, 0);
            }
        });
        return h.runtime->proc(0).stats().latency;
    };
    EXPECT_GT(latency_for(ProtocolKind::Msi),
              latency_for(ProtocolKind::Berkeley));
}

TEST(MsiProtocol, WriteMissRecallsThroughMemory)
{
    MsiHarness h(4);
    rt::SharedArray<std::uint64_t> a(h.heap, 4, rt::Placement::OnNode, 2);
    const auto blk = mem::blockOf(a.addrOf(0));
    h.run([&](rt::Proc &p) {
        if (p.node() == 1) {
            a.write(p, 0, 3);
        } else if (p.node() == 0) {
            p.compute(kAfter);
            a.write(p, 0, 4);
        }
    });
    EXPECT_EQ(h.target().cache(0).stateOf(blk), LineState::Dirty);
    EXPECT_EQ(h.target().cache(1).stateOf(blk), LineState::Invalid);
    EXPECT_EQ(h.target().directory().peek(blk)->owner, 0);
    EXPECT_EQ(a.raw(0), 4u);
    // req(8) + recall(8) + wb(32) + data(32) + grant(8).
    EXPECT_EQ(h.runtime->proc(0).stats().latency,
              400u + 400u + 1600u + 1600u + 400u);
}

TEST(MsiProtocol, SharedDirtyNeverAppears)
{
    MsiHarness h(4, TopologyKind::Mesh2D);
    rt::SharedArray<std::uint64_t> a(h.heap, 64,
                                     rt::Placement::Interleaved);
    h.run([&](rt::Proc &p) {
        for (int i = 0; i < 50; ++i) {
            const std::size_t at = (i * 7 + p.node() * 11) % 64;
            if ((i + p.node()) % 3 == 0)
                a.fetchAdd(p, at, 1);
            else
                a.read(p, at);
            p.compute(9);
        }
    });
    for (std::uint32_t n = 0; n < 4; ++n)
        for (const auto &[blk, state] :
             h.target().cache(n).residentLines())
            EXPECT_NE(state, LineState::SharedDirty)
                << "node " << n << " blk " << blk;
}

TEST(MsiProtocol, AppsComputeCorrectResults)
{
    for (const char *app : {"fft", "is"}) {
        core::RunConfig config;
        config.app = app;
        config.params.n = app == std::string("fft") ? 256 : 1024;
        config.machine = MachineKind::Target;
        config.protocol = ProtocolKind::Msi;
        config.procs = 4;
        EXPECT_NO_THROW(core::runOne(config)) << app;
    }
}

TEST(MsiProtocol, MessageOrderingAcrossProtocols)
{
    // The paper's minimality claim: LogP+C <= Berkeley <= MSI messages,
    // on a sharing-heavy workload.
    auto messages_for = [](MachineKind machine, ProtocolKind protocol) {
        core::RunConfig config;
        config.app = "cg";
        config.params.n = 128;
        config.params.iterations = 3;
        config.machine = machine;
        config.protocol = protocol;
        config.procs = 4;
        return core::runOne(config).machine.messages;
    };
    const auto ideal =
        messages_for(MachineKind::LogPC, ProtocolKind::Berkeley);
    const auto berkeley =
        messages_for(MachineKind::Target, ProtocolKind::Berkeley);
    const auto msi = messages_for(MachineKind::Target, ProtocolKind::Msi);
    EXPECT_LE(ideal, berkeley);
    EXPECT_LE(berkeley, msi);
}

} // namespace
