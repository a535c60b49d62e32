/**
 * @file
 * The invariant-checker subsystem (src/check): macro semantics, and one
 * negative test per validator proving that the coherence, causality,
 * conservation and fiber-misuse checkers actually fire — plus positive
 * tests showing they accept real workloads.
 *
 * Every negative test installs ScopedThrowOnFailure so the failure is
 * observable as a CheckFailure instead of a process abort.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <string>
#include <thread>

#include "check/check.hh"
#include "core/experiment.hh"
#include "machine_fixture.hh"
#include "mem/addr.hh"
#include "sim/event_queue.hh"
#include "sim/fiber.hh"

namespace {

using namespace absim;

// -------------------------------------------------------------- Macros

TEST(CheckMacros, PassingCheckCountsAsEvaluated)
{
    const std::uint64_t before = check::counters().evaluated;
    ABSIM_CHECK(1 + 1 == 2, "arithmetic broke");
    ABSIM_DCHECK(true, "never printed");
    EXPECT_EQ(check::counters().evaluated, before + 2);
}

TEST(CheckMacros, FailureReportsFileLineExprAndMessage)
{
    check::ScopedThrowOnFailure guard;
    const std::uint64_t failed_before = check::counters().failed;
    try {
        const int answer = 41;
        ABSIM_CHECK(answer == 42, "got " << answer << " instead");
        FAIL() << "check did not fire";
    } catch (const check::CheckFailure &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("test_check.cc"), std::string::npos) << what;
        EXPECT_NE(what.find("answer == 42"), std::string::npos) << what;
        EXPECT_NE(what.find("got 41 instead"), std::string::npos) << what;
        EXPECT_NE(std::string(e.file()).find("test_check.cc"),
                  std::string::npos);
        EXPECT_GT(e.line(), 0);
    }
    EXPECT_EQ(check::counters().failed, failed_before + 1);
}

TEST(CheckMacros, DcheckIsLiveInThisBuild)
{
    // The project strips NDEBUG from all its own build types, so hot-path
    // DCHECKs must be active here.
    check::ScopedThrowOnFailure guard;
    EXPECT_THROW(ABSIM_DCHECK(false, "dchecks must be live"),
                 check::CheckFailure);
}

TEST(CheckMacros, EqualityCheckPrintsBothOperands)
{
    check::ScopedThrowOnFailure guard;
    try {
        ABSIM_CHECK_EQ(2 + 2, 5, "arithmetic");
        FAIL() << "check did not fire";
    } catch (const check::CheckFailure &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("4 vs 5"), std::string::npos) << what;
    }
}

TEST(CheckMacros, HandlerRestoredAfterScope)
{
    {
        check::ScopedThrowOnFailure guard;
    }
    // Installing a handler returns what the scope left behind: the
    // default (nullptr).
    check::FailureHandler prev = check::setFailureHandler(nullptr);
    EXPECT_EQ(prev, nullptr);
}

TEST(CheckMacrosDeathTest, FailureWithNoHandlerPrintsAndAborts)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    // The child turns its abort into an exit with a code of its own, so
    // the exit status proves abort() was called, and the process still
    // runs its exit handlers (a profiling build writes its counters
    // there).
    constexpr int kAborted = 86;
    EXPECT_EXIT(
        {
            std::signal(SIGABRT, [](int) { std::exit(kAborted); });
            check::setFailureHandler(nullptr);
            ABSIM_CHECK(false, "no handler installed");
        },
        testing::ExitedWithCode(kAborted),
        "ABSIM_CHECK failed: false\n  no handler installed");
}

TEST(CheckMacros, HandlerAndCountersArePerThread)
{
    check::ScopedThrowOnFailure guard;
    const std::uint64_t mine = check::counters().evaluated;
    check::FailureHandler other_handler =
        reinterpret_cast<check::FailureHandler>(1);
    std::uint64_t other_evaluated = ~0ull;
    std::thread peer([&] {
        // A fresh thread sees its own clean state, not this thread's
        // throwing handler or counter tallies — so concurrent runs
        // can't race on handler installation.
        other_handler = check::state().handler;
        other_evaluated = check::counters().evaluated;
        ABSIM_CHECK(true, "tallied on the peer thread only");
    });
    peer.join();
    EXPECT_EQ(other_handler, nullptr);
    EXPECT_EQ(other_evaluated, 0u);
    EXPECT_EQ(check::counters().evaluated, mine);
}

// ----------------------------------------------------------- Causality

TEST(CausalityChecker, RejectsEventScheduledInThePast)
{
    sim::EventQueue eq;
    eq.schedule(10, [&eq] {
        eq.schedule(5, [] {}); // 5 < now() == 10: time travel.
    });
    check::ScopedThrowOnFailure guard;
    EXPECT_THROW(eq.run(), check::CheckFailure);
}

TEST(CausalityChecker, AcceptsPresentAndFutureEvents)
{
    sim::EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] {
        ++fired;
        eq.schedule(10, [&] { ++fired; }); // Same tick is fine.
        eq.schedule(20, [&] { ++fired; });
    });
    EXPECT_NO_THROW(eq.run());
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eq.now(), 20u);
}

// -------------------------------------------------------- Conservation

TEST(ConservationChecker, RejectsUnaccountedEngineTime)
{
    test::MachineHarness h(mach::MachineKind::LogP,
                           net::TopologyKind::Full, 1);
    check::ScopedThrowOnFailure guard;
    // Claim 1 tick of latency when no engine time elapsed at all: the
    // buckets no longer partition the blocked interval.
    EXPECT_THROW(
        h.run([](rt::Proc &p) { p.absorbEngineTime(1, 0, 0); }),
        check::CheckFailure);
}

TEST(ConservationChecker, CanBeDisabledForForensics)
{
    check::options().conservation = false;
    test::MachineHarness h(mach::MachineKind::LogP,
                           net::TopologyKind::Full, 1);
    check::ScopedThrowOnFailure guard;
    EXPECT_NO_THROW(
        h.run([](rt::Proc &p) { p.absorbEngineTime(1, 0, 0); }));
    check::options().conservation = true;
}

// ----------------------------------------------------------- Coherence

/** Expect @p fn to fail a check whose message ends with @p message
 *  (the text after the failed expression). */
template <typename Fn>
void
expectCheckMessage(Fn &&fn, const std::string &message)
{
    check::ScopedThrowOnFailure guard;
    try {
        fn();
        ADD_FAILURE() << "no check failed; expected: " << message;
    } catch (const check::CheckFailure &e) {
        const std::string what = e.what();
        EXPECT_TRUE(what.size() >= message.size() &&
                    what.compare(what.size() - message.size(),
                                 message.size(), message) == 0)
            << what << "\nexpected to end with: " << message;
    }
}

/** Shared-array workload with real sharing: everyone reads everything,
 *  then writes a private slice (forcing upgrades + invalidations). */
void
contendedWorkload(rt::Proc &p, mem::Addr base, std::uint32_t words)
{
    for (std::uint32_t i = 0; i < words; ++i)
        p.memRead(base + i * 8, 8);
    const std::uint32_t chunk = words / p.procs();
    for (std::uint32_t i = 0; i < chunk; ++i)
        p.memWrite(base + (p.node() * chunk + i) * 8, 8);
    for (std::uint32_t i = 0; i < words; ++i)
        p.memRead(base + ((i + p.node()) % words) * 8, 8);
}

TEST(CoherenceChecker, AcceptsContendedTargetWorkload)
{
    test::MachineHarness h(mach::MachineKind::Target,
                           net::TopologyKind::Hypercube, 4);
    const mem::Addr base =
        h.heap.allocate(64 * 8, rt::Placement::Interleaved);
    h.run([base](rt::Proc &p) { contendedWorkload(p, base, 64); });
    EXPECT_NO_THROW(h.machine->checkInvariants());
    // Proof the validator ran: per-transaction checks plus the sweep.
    EXPECT_GT(h.target().checker().blocksChecked(), 64u);
}

TEST(CoherenceChecker, AcceptsContendedLogPCWorkload)
{
    test::MachineHarness h(mach::MachineKind::LogPC,
                           net::TopologyKind::Hypercube, 4);
    const mem::Addr base =
        h.heap.allocate(64 * 8, rt::Placement::Interleaved);
    h.run([base](rt::Proc &p) { contendedWorkload(p, base, 64); });
    EXPECT_NO_THROW(h.machine->checkInvariants());
    EXPECT_GT(h.logpc().checker().blocksChecked(), 64u);
}

TEST(CoherenceChecker, DetectsSecondOwnerInTargetMachine)
{
    test::MachineHarness h(mach::MachineKind::Target,
                           net::TopologyKind::Full, 2);
    const mem::Addr addr = h.heap.allocate(8, rt::Placement::OnNode, 0);
    h.run([addr](rt::Proc &p) {
        if (p.node() == 0)
            p.memWrite(addr, 8);
    });
    ASSERT_NO_THROW(h.machine->checkInvariants());

    // Forge a second ownership copy behind the directory's back: SWMR is
    // now violated (two caches believe they own the block).
    h.target().cacheForTest(1).install(mem::blockOf(addr),
                                       mem::LineState::Dirty);
    expectCheckMessage([&] { h.machine->checkInvariants(); },
                       "target: node 1 holds block 1 without a sharer bit "
                       "(sharers=0x1)");
}

TEST(CoherenceChecker, DetectsDirectoryCacheDisagreement)
{
    test::MachineHarness h(mach::MachineKind::Target,
                           net::TopologyKind::Full, 2);
    const mem::Addr addr = h.heap.allocate(8, rt::Placement::OnNode, 0);
    h.run([addr](rt::Proc &p) {
        if (p.node() == 0)
            p.memWrite(addr, 8);
    });
    ASSERT_NO_THROW(h.machine->checkInvariants());

    // Drop the directory's owner field while node 0 still holds the
    // block Dirty: directory and cache now disagree.
    h.target().directoryForTest().entry(mem::blockOf(addr)).owner =
        mem::DirectoryEntry::kNoOwner;
    expectCheckMessage([&] { h.machine->checkInvariants(); },
                       "target: node 0 owns block 1 but the directory "
                       "names owner -1");
}

TEST(CoherenceChecker, DetectsStaleOracleSharerInLogPC)
{
    test::MachineHarness h(mach::MachineKind::LogPC,
                           net::TopologyKind::Full, 2);
    const mem::Addr addr = h.heap.allocate(8, rt::Placement::OnNode, 0);
    h.run([addr](rt::Proc &p) {
        if (p.node() == 0)
            p.memWrite(addr, 8);
    });
    ASSERT_NO_THROW(h.machine->checkInvariants());

    // The LogP+C oracle is exact: a sharer bit for a node with no
    // resident copy is a bookkeeping bug, not a tolerated staleness.
    h.logpc().oracleForTest(mem::blockOf(addr)).sharers |= 1u << 1;
    expectCheckMessage([&] { h.machine->checkInvariants(); },
                       "logp+c: stale sharer bit, node 1 listed for block "
                       "1 but holds no copy");
}

TEST(CoherenceChecker, CanBeDisabledForForensics)
{
    test::MachineHarness h(mach::MachineKind::Target,
                           net::TopologyKind::Full, 2);
    const mem::Addr addr = h.heap.allocate(8, rt::Placement::OnNode, 0);
    h.run([addr](rt::Proc &p) {
        if (p.node() == 0)
            p.memWrite(addr, 8);
    });
    h.target().cacheForTest(1).install(mem::blockOf(addr),
                                       mem::LineState::Dirty);
    check::options().coherence = false;
    EXPECT_NO_THROW(h.machine->checkInvariants());
    check::options().coherence = true;
    expectCheckMessage([&] { h.machine->checkInvariants(); },
                       "target: node 1 holds block 1 without a sharer bit "
                       "(sharers=0x1)");
}

TEST(CoherenceChecker, SwitchedOnAfterAnUncheckedBuildIsANamedFailure)
{
    // Built with the checker off, the model keeps no presence records,
    // so switching the checker on later must fail by name rather than
    // check against records that were never kept.
    check::options().coherence = false;
    test::MachineHarness h(mach::MachineKind::Target,
                           net::TopologyKind::Full, 2);
    check::options().coherence = true;
    const mem::Addr addr = h.heap.allocate(8, rt::Placement::OnNode, 0);
    const std::string message =
        "target: coherence checking was switched on after the model was "
        "built without it, so no presence records were kept";
    expectCheckMessage(
        [&] { h.target().checker().checkBlock(mem::blockOf(addr)); },
        message);
    expectCheckMessage([&] { h.machine->checkInvariants(); }, message);
}

// -------------------------------------------------------- Fiber misuse

TEST(FiberGuards, ResumeOfFinishedFiberFails)
{
    sim::Fiber fiber([] {});
    fiber.resume();
    ASSERT_TRUE(fiber.finished());
    check::ScopedThrowOnFailure guard;
    EXPECT_THROW(fiber.resume(), check::CheckFailure);
}

TEST(FiberGuards, StackCanaryDetectsOverflow)
{
    sim::Fiber fiber([] { sim::Fiber::yield(); });
    fiber.resume(); // Runs until the yield; canary intact so far.
    fiber.corruptStackCanaryForTest();
    check::ScopedThrowOnFailure guard;
    // The canary check fires on the scheduler side of the next switch,
    // where a throwing handler can unwind safely.
    EXPECT_THROW(fiber.resume(), check::CheckFailure);
}

// ------------------------------------------- Whole-application accepts

TEST(CheckersEndToEnd, AcceptExistingAppsOnSmallConfigs)
{
    // All validators are on by default; a full application run across all
    // three machine characterizations must pass every per-transaction
    // check and the drain-time sweep inside core::runOne().
    const std::uint64_t evaluated_before = check::counters().evaluated;
    for (const mach::MachineKind kind :
         {mach::MachineKind::Target, mach::MachineKind::LogP,
          mach::MachineKind::LogPC}) {
        core::RunConfig config;
        config.app = "fft";
        config.params.n = 64;
        config.machine = kind;
        config.topology = net::TopologyKind::Hypercube;
        config.procs = 4;
        config.checkResult = true;
        EXPECT_NO_THROW(core::runOne(config)) << toString(kind);
    }
    EXPECT_GT(check::counters().evaluated, evaluated_before);
}

} // namespace
