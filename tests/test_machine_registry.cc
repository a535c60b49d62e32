/**
 * @file
 * The machine registry and the two off-diagonal quadrants: name
 * round-trips, table consistency, registry-built machines end to end
 * (including through the parallel sweep), and coherence-checker
 * negative tests on target+ic and logp+dir.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "check/check.hh"
#include "core/figures.hh"
#include "machine_fixture.hh"
#include "machines/registry.hh"

namespace {

using namespace absim;
using absim::test::MachineHarness;
using mach::MachineKind;
using net::TopologyKind;

// ------------------------------------------------------------ Registry

TEST(MachineRegistry, ToStringParseRoundTripsEveryKind)
{
    for (const MachineKind kind :
         {MachineKind::Target, MachineKind::LogP, MachineKind::LogPC,
          MachineKind::TargetIC, MachineKind::LogPDir}) {
        MachineKind parsed{};
        ASSERT_TRUE(mach::parseMachineKind(mach::toString(kind), parsed))
            << mach::toString(kind);
        EXPECT_EQ(parsed, kind);
    }
}

TEST(MachineRegistry, ParseAcceptsColumnAliases)
{
    MachineKind kind{};
    ASSERT_TRUE(mach::parseMachineKind("logpc", kind));
    EXPECT_EQ(kind, MachineKind::LogPC);
    ASSERT_TRUE(mach::parseMachineKind("targetic", kind));
    EXPECT_EQ(kind, MachineKind::TargetIC);
    ASSERT_TRUE(mach::parseMachineKind("logpdir", kind));
    EXPECT_EQ(kind, MachineKind::LogPDir);
    EXPECT_FALSE(mach::parseMachineKind("logp+x", kind));
    EXPECT_FALSE(mach::parseMachineKind("", kind));
    EXPECT_FALSE(mach::parseMachineKind("Target", kind));
    EXPECT_FALSE(mach::parseMachineKind("none", kind));
}

TEST(MachineRegistry, TableIsConsistent)
{
    for (const mach::MachineSpec &spec : mach::machineRegistry()) {
        EXPECT_EQ(spec.name, mach::toString(spec.kind));
        // Columns are the name with '+' stripped — never empty, no '+'.
        const std::string column = spec.column;
        EXPECT_FALSE(column.empty());
        EXPECT_EQ(column.find('+'), std::string::npos);
        EXPECT_EQ(&mach::specFor(spec.kind), &spec);
    }
    // makeMachine builds every row as the row says.
    for (const mach::MachineSpec &spec : mach::machineRegistry()) {
        sim::EventQueue eq;
        rt::SharedHeap heap(2);
        const auto machine = mach::makeMachine(spec.kind, eq,
                                               TopologyKind::Full, 2, heap);
        EXPECT_EQ(machine->kind(), spec.kind) << spec.name;
        EXPECT_STREQ(machine->netModelName(), spec.netModel) << spec.name;
        EXPECT_STREQ(machine->memModelName(), spec.memModel) << spec.name;
    }
    // The diagnostic list names every machine.
    const std::string names = mach::machineNames();
    for (const mach::MachineSpec &spec : mach::machineRegistry())
        EXPECT_NE(names.find(spec.name), std::string::npos) << spec.name;
}

TEST(MachineRegistry, QuadrantListsMatchTheGrid)
{
    const auto trio = mach::defaultFigureMachines();
    ASSERT_EQ(trio.size(), 3u);
    EXPECT_EQ(trio[0], MachineKind::Target);
    EXPECT_EQ(trio[1], MachineKind::LogP);
    EXPECT_EQ(trio[2], MachineKind::LogPC);
    const auto all = mach::allQuadrants();
    ASSERT_EQ(all.size(), 5u);
    for (std::size_t i = 0; i < all.size(); ++i)
        EXPECT_EQ(all[i], mach::machineRegistry()[i].kind);
}

// --------------------------------------------- The new quadrants, E2E

/** Contended sharing: everyone reads everything, writes its slice. */
void
contendedWorkload(rt::Proc &p, mem::Addr base, std::uint32_t words)
{
    for (std::uint32_t i = 0; i < words; ++i)
        p.memRead(base + i * 8, 8);
    const std::uint32_t chunk = words / p.procs();
    for (std::uint32_t i = 0; i < chunk; ++i)
        p.memWrite(base + (p.node() * chunk + i) * 8, 8);
}

TEST(QuadrantMachines, TargetIcComposesDetailedNetAndIdealCache)
{
    MachineHarness h(MachineKind::TargetIC, TopologyKind::Mesh2D, 4);
    EXPECT_EQ(h.machine->kind(), MachineKind::TargetIC);
    EXPECT_STREQ(h.machine->netModelName(), "detailed");
    EXPECT_STREQ(h.machine->memModelName(), "ideal");
    const mem::Addr base =
        h.heap.allocate(64 * 8, rt::Placement::Interleaved);
    h.run([base](rt::Proc &p) { contendedWorkload(p, base, 64); });
    EXPECT_NO_THROW(h.machine->checkInvariants());
    auto &ideal = h.logpc();
    EXPECT_GT(ideal.checker().blocksChecked(), 64u);
    EXPECT_GT(h.machine->stats().cacheHits, 0u);
    EXPECT_GT(h.machine->stats().memTime, 0u);
}

TEST(QuadrantMachines, LogPDirComposesLogPNetAndRealDirectory)
{
    MachineHarness h(MachineKind::LogPDir, TopologyKind::Full, 4);
    EXPECT_EQ(h.machine->kind(), MachineKind::LogPDir);
    EXPECT_STREQ(h.machine->netModelName(), "logp");
    EXPECT_STREQ(h.machine->memModelName(), "directory");
    const mem::Addr base =
        h.heap.allocate(64 * 8, rt::Placement::Interleaved);
    h.run([base](rt::Proc &p) { contendedWorkload(p, base, 64); });
    EXPECT_NO_THROW(h.machine->checkInvariants());
    auto &dir = h.target();
    EXPECT_GT(dir.checker().blocksChecked(), 64u);
    // The real protocol ran: invalidations happened over the LogP net.
    EXPECT_GT(h.machine->stats().invalidations, 0u);
    EXPECT_GT(h.machine->stats().readMisses, 0u);
}

TEST(QuadrantMachines, CheckerFiresOnForgedOwnerInLogPDir)
{
    MachineHarness h(MachineKind::LogPDir, TopologyKind::Full, 2);
    const mem::Addr addr = h.heap.allocate(8, rt::Placement::OnNode, 0);
    h.run([addr](rt::Proc &p) {
        if (p.node() == 0)
            p.memWrite(addr, 8);
    });
    ASSERT_NO_THROW(h.machine->checkInvariants());

    // Forge a second ownership copy behind the directory's back: SWMR
    // is violated regardless of which network model carried the
    // protocol traffic.
    auto &dir = h.target();
    dir.cacheForTest(1).install(mem::blockOf(addr),
                                mem::LineState::Dirty);
    check::ScopedThrowOnFailure guard;
    try {
        h.machine->checkInvariants();
        FAIL() << "forged owner passed the checker";
    } catch (const check::CheckFailure &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "logp+dir: node 1 holds block 1 without a sharer "
                      "bit (sharers=0x1)"),
                  std::string::npos)
            << e.what();
    }
}

TEST(QuadrantMachines, CheckerFiresOnStaleOracleInTargetIc)
{
    MachineHarness h(MachineKind::TargetIC, TopologyKind::Full, 2);
    const mem::Addr addr = h.heap.allocate(8, rt::Placement::OnNode, 0);
    h.run([addr](rt::Proc &p) {
        if (p.node() == 0)
            p.memWrite(addr, 8);
    });
    ASSERT_NO_THROW(h.machine->checkInvariants());

    // The ideal-cache oracle is exact; a phantom sharer bit must trip
    // the exact-sharers sweep.
    auto &ideal = h.logpc();
    ideal.oracleForTest(mem::blockOf(addr)).sharers |= 1u << 1;
    check::ScopedThrowOnFailure guard;
    try {
        h.machine->checkInvariants();
        FAIL() << "phantom sharer passed the checker";
    } catch (const check::CheckFailure &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "target+ic: stale sharer bit, node 1 listed for "
                      "block 1 but holds no copy"),
                  std::string::npos)
            << e.what();
    }
}

// ------------------------------------------------- Through the sweeps

TEST(QuadrantSweep, AllFiveStacksSweepThroughTheParallelEngine)
{
    core::RunConfig base;
    base.app = "is";
    base.params.n = 256;
    core::SweepOptions options;
    options.jobs = 2;
    options.machines = mach::allQuadrants();
    const core::SweepResult result = core::sweepFigureSafe(
        "quadrants", base, TopologyKind::Full, core::Metric::ExecTime,
        {1, 2, 4}, options);
    ASSERT_TRUE(result.complete()) << result.failures.size()
                                   << " failed points";
    ASSERT_EQ(result.figure.points.size(), 3u);
    for (const core::SeriesPoint &pt : result.figure.points) {
        ASSERT_EQ(pt.values.size(), 5u);
        for (const double v : pt.values)
            EXPECT_GT(v, 0.0);
    }
    // Column order follows the machine list.
    const auto columns = core::machineColumns(options.machines);
    ASSERT_EQ(columns.size(), 5u);
    EXPECT_EQ(columns[3], "targetic");
    EXPECT_EQ(columns[4], "logpdir");
    // CSV/JSON writers key off the same list.
    std::ostringstream csv;
    core::writeFigureCsv(csv, result.figure);
    EXPECT_NE(csv.str().find("procs,target,logp,logpc,targetic,logpdir"),
              std::string::npos);
    std::ostringstream json;
    core::writeFigureJson(json, result);
    EXPECT_NE(json.str().find("\"targetic\":"), std::string::npos);
    EXPECT_NE(json.str().find("\"logpdir\":"), std::string::npos);
}

TEST(QuadrantSweep, SingleAxisQuadrantsBracketTheTrio)
{
    // At P=1 there is no network traffic on the full topology sweep of
    // EP, so every directory-backed machine must agree exactly with the
    // target and every ideal-cache machine with logp+c.
    core::RunConfig base;
    base.app = "ep";
    base.params.n = 64;
    core::SweepOptions options;
    options.machines = mach::allQuadrants();
    const core::SweepResult result = core::sweepFigureSafe(
        "quadrants-p1", base, TopologyKind::Full, core::Metric::ExecTime,
        {1}, options);
    ASSERT_TRUE(result.complete());
    ASSERT_EQ(result.figure.points.size(), 1u);
    const auto &v = result.figure.points[0].values;
    ASSERT_EQ(v.size(), 5u);
    EXPECT_DOUBLE_EQ(v[4], v[0]); // logp+dir == target at P=1
    EXPECT_DOUBLE_EQ(v[3], v[2]); // target+ic == logp+c at P=1
}

} // namespace
