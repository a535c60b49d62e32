/**
 * @file
 * Litmus tests for the run watchdog and the fault-injection (chaos)
 * layer.  Every test here drives the simulator into a pathological
 * state on purpose — deadlock, livelock, runaway, corrupted coherence
 * state — and asserts that the robustness machinery converts it into a
 * structured, named diagnosis instead of a hang or an abort.
 *
 * These tests live in their own binary (absim_chaos_tests): a wedged
 * fiber is deliberately abandoned mid-flight, so heap blocks reachable
 * only from its dead stack frames are unrecoverable by design and leak
 * checkers must be off (see tests/CMakeLists.txt).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <thread>

#include <unistd.h>

#include "check/check.hh"
#include "core/experiment.hh"
#include "core/figures.hh"
#include "fault/fault.hh"
#include "machines/registry.hh"
#include "runtime/context.hh"
#include "runtime/shared.hh"
#include "sim/event_queue.hh"
#include "sim/process.hh"
#include "sim/resource.hh"
#include "sim/watchdog.hh"

namespace {

using namespace absim;

bool
dumpNames(const std::vector<sim::BlockedProcessInfo> &blocked,
          const std::string &name, const std::string &reason_substr)
{
    for (const auto &info : blocked)
        if (info.name == name &&
            info.waitReason.find(reason_substr) != std::string::npos)
            return true;
    return false;
}

// ---- Deadlock litmus cases ---------------------------------------------

TEST(Watchdog, LockOrderInversionIsDiagnosed)
{
    sim::EventQueue eq;
    rt::SharedHeap heap(2);
    const auto machine = mach::makeMachine(mach::MachineKind::Target, eq,
                                           net::TopologyKind::Full, 2, heap);
    rt::Runtime runtime(eq, *machine, 2);
    sim::FifoMutex a;
    sim::FifoMutex b;

    // The classic ABBA inversion: each worker holds one mutex and wants
    // the other.  The queue drains with both suspended.
    runtime.spawn([&](rt::Proc &p) {
        sim::FifoMutex &first = p.node() == 0 ? a : b;
        sim::FifoMutex &second = p.node() == 0 ? b : a;
        first.acquire();
        p.process()->delay(10);
        second.acquire();
    });

    try {
        runtime.run();
        FAIL() << "expected DeadlockError";
    } catch (const sim::DeadlockError &e) {
        EXPECT_NE(std::string(e.what()).find("2 of 2 workers"),
                  std::string::npos)
            << e.what();
        EXPECT_TRUE(dumpNames(e.blocked(), "worker-0", "fifo-mutex"))
            << e.what();
        EXPECT_TRUE(dumpNames(e.blocked(), "worker-1", "fifo-mutex"))
            << e.what();
    }
}

TEST(Watchdog, GateNobodyOpensIsDiagnosed)
{
    sim::EventQueue eq;
    rt::SharedHeap heap(2);
    const auto machine = mach::makeMachine(mach::MachineKind::Target, eq,
                                           net::TopologyKind::Full, 2, heap);
    rt::Runtime runtime(eq, *machine, 2);
    sim::Latch gate(1);

    // Worker 1 waits on a latch nobody will ever count down.
    runtime.spawn([&](rt::Proc &p) {
        if (p.node() == 1)
            gate.await();
    });

    try {
        runtime.run();
        FAIL() << "expected DeadlockError";
    } catch (const sim::DeadlockError &e) {
        EXPECT_NE(std::string(e.what()).find("1 of 2 workers"),
                  std::string::npos)
            << e.what();
        EXPECT_TRUE(dumpNames(e.blocked(), "worker-1", "latch await"))
            << e.what();
    }
}

TEST(Watchdog, LivelockedRetryLoopTripsStallWatchdog)
{
    sim::EventQueue eq;
    sim::RunBudget budget;
    budget.stallDispatchLimit = 500;
    eq.setBudget(budget);

    // A retry loop that re-polls at the same tick forever: the queue
    // never drains and the clock never advances.
    sim::Process spinner(eq, "spinner", [] {
        for (;;)
            sim::Process::current()->delay(0);
    });
    spinner.start();

    try {
        eq.run();
        FAIL() << "expected DeadlockError";
    } catch (const sim::DeadlockError &e) {
        EXPECT_NE(std::string(e.what()).find("no sim-time progress"),
                  std::string::npos)
            << e.what();
        EXPECT_GE(e.eventsDispatched(), 500u);
        EXPECT_EQ(e.simTime(), 0u);
    }
}

// ---- Budget enforcement ------------------------------------------------

TEST(Watchdog, EventBudgetSurfacesStructuredError)
{
    sim::EventQueue eq;
    sim::RunBudget budget;
    budget.maxEvents = 10;
    eq.setBudget(budget);

    std::function<void()> tick = [&] { eq.scheduleAfter(1, tick); };
    eq.scheduleAfter(1, tick);

    try {
        eq.run();
        FAIL() << "expected BudgetExceededError";
    } catch (const sim::BudgetExceededError &e) {
        EXPECT_EQ(e.eventsDispatched(), 10u);
        EXPECT_EQ(e.simTime(), 10u);
        EXPECT_NE(std::string(e.what()).find("event budget exceeded"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Watchdog, SimTimeBudgetStopsBeforeDispatch)
{
    sim::EventQueue eq;
    sim::RunBudget budget;
    budget.maxSimTime = 100;
    eq.setBudget(budget);

    std::function<void()> tick = [&] { eq.scheduleAfter(30, tick); };
    eq.scheduleAfter(30, tick);

    try {
        eq.run();
        FAIL() << "expected BudgetExceededError";
    } catch (const sim::BudgetExceededError &e) {
        // Events at 30, 60, 90 fire; the one at 120 must not.
        EXPECT_EQ(e.eventsDispatched(), 3u);
        EXPECT_EQ(e.simTime(), 90u);
        EXPECT_NE(std::string(e.what()).find("sim-time budget"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Watchdog, WallClockBudgetInterruptsRunaway)
{
    sim::EventQueue eq;
    sim::RunBudget budget;
    budget.maxWallSeconds = 1e-9; // Expires by the next 1024-dispatch check.
    eq.setBudget(budget);

    std::function<void()> tick = [&] { eq.scheduleAfter(1, tick); };
    eq.scheduleAfter(1, tick);

    EXPECT_THROW(eq.run(), sim::BudgetExceededError);
}

TEST(Watchdog, UnlimitedBudgetIsInert)
{
    sim::RunBudget budget;
    EXPECT_TRUE(budget.unlimited());
    budget.maxEvents = 1;
    EXPECT_FALSE(budget.unlimited());
}

TEST(Watchdog, FormatBlockedDumpListsEveryProcess)
{
    std::vector<sim::BlockedProcessInfo> blocked;
    blocked.push_back({"worker-3", "suspended", "msg receive", 0});
    blocked.push_back({"helper", "delayed", "", 420});
    const std::string dump = sim::formatBlockedDump(blocked);
    EXPECT_NE(dump.find("2 unfinished process(es)"), std::string::npos);
    EXPECT_NE(dump.find("worker-3: suspended (msg receive)"),
              std::string::npos);
    EXPECT_NE(dump.find("helper: delayed until 420 ns"),
              std::string::npos);
}

// ---- Fault-plan parsing ------------------------------------------------

TEST(FaultPlan, ParsesFullSyntaxAndRoundTrips)
{
    const auto plan = fault::Plan::parse(
        "wedge@120:node=2; corrupt@80; drop@40; stall@500; seed=7");
    ASSERT_EQ(plan.faults.size(), 4u);
    EXPECT_EQ(plan.faults[0].kind, fault::Kind::WedgeFiber);
    EXPECT_EQ(plan.faults[0].at, 120u);
    EXPECT_EQ(plan.faults[0].node, 2u);
    EXPECT_EQ(plan.faults[1].kind, fault::Kind::CorruptTransition);
    EXPECT_EQ(plan.faults[2].kind, fault::Kind::DropOverhead);
    EXPECT_EQ(plan.faults[3].kind, fault::Kind::StallQueue);
    EXPECT_EQ(plan.seed, 7u);
    EXPECT_EQ(fault::Plan::parse(plan.toString()).toString(),
              plan.toString());
}

TEST(FaultPlan, RejectsMalformedPlans)
{
    EXPECT_THROW(fault::Plan::parse("wedge"), std::invalid_argument);
    EXPECT_THROW(fault::Plan::parse("explode@3"), std::invalid_argument);
    EXPECT_THROW(fault::Plan::parse("wedge@zero"), std::invalid_argument);
    EXPECT_THROW(fault::Plan::parse("corrupt@0"), std::invalid_argument);
    EXPECT_THROW(fault::Plan::parse("corrupt@3:node=1"),
                 std::invalid_argument);
    EXPECT_THROW(fault::Plan::parse("wedge@3:speed=9"),
                 std::invalid_argument);
}

TEST(FaultPlan, InertWhenEmpty)
{
    EXPECT_FALSE(fault::armed());
    fault::ScopedPlan scoped(fault::Plan{});
    EXPECT_FALSE(fault::armed());
}

// ---- Chaos hooks through the full stack --------------------------------

namespace {

core::RunConfig
chaosConfig()
{
    core::RunConfig config;
    config.app = "is";
    config.params.n = 256;
    config.machine = mach::MachineKind::Target;
    config.procs = 4;
    return config;
}

core::RunPolicy
chaosPolicy(int attempts = 1)
{
    core::RunPolicy policy;
    policy.maxAttempts = attempts;
    // Bound the damage: a wedged worker leaves its peers spinning at a
    // barrier (simulated time keeps advancing), so the run must be cut
    // off by the event budget, not by hoping for a drain.
    policy.budget.maxEvents = 500'000;
    policy.budget.stallDispatchLimit = 100'000;
    return policy;
}

} // namespace

TEST(Chaos, WedgedFiberIsCaughtAndNamed)
{
    fault::ScopedPlan scoped(fault::Plan::parse("wedge@50:node=1"));
    const auto result = core::runOneSafe(chaosConfig(), chaosPolicy());
    ASSERT_FALSE(result.ok());
    const core::RunError &err = result.error();
    // Peers spinning on shared memory advance the clock, so the wedge
    // surfaces as an exhausted event budget; if the app instead blocks
    // everyone, the queue drains into a plain deadlock.  Both carry the
    // blocked-fiber dump.
    EXPECT_TRUE(err.kind == core::RunErrorKind::BudgetExceeded ||
                err.kind == core::RunErrorKind::Deadlock)
        << err;
    EXPECT_TRUE(dumpNames(err.blockedFibers, "worker-1", "wedged fiber"))
        << err;
    EXPECT_EQ(fault::injector().fired(fault::Kind::WedgeFiber), 1u);
}

TEST(Chaos, WedgedPeerLeavesASpinThatIsANamedLivelock)
{
    // With two workers, the wedge leaves worker 0 alone at a barrier:
    // its polls hit in the cache and no event is pending, so no budget
    // can trip.  The failed-spin path must name the livelock as a
    // deadlock with the wedged worker in the dump, not spin forever.
    fault::ScopedPlan scoped(fault::Plan::parse("wedge@20:node=1"));
    core::RunConfig config = chaosConfig();
    config.procs = 2;
    const auto result = core::runOneSafe(config, chaosPolicy());
    ASSERT_FALSE(result.ok());
    const core::RunError &err = result.error();
    EXPECT_EQ(err.kind, core::RunErrorKind::Deadlock) << err;
    EXPECT_NE(err.message.find("livelock: processor 0 spins on word"),
              std::string::npos)
        << err;
    EXPECT_TRUE(dumpNames(err.blockedFibers, "worker-1", "wedged fiber"))
        << err;
}

TEST(Chaos, CorruptedTransitionFailsCoherenceCheck)
{
    fault::ScopedPlan scoped(
        fault::Plan::parse("corrupt@30; seed=5"));
    const auto result = core::runOneSafe(chaosConfig(), chaosPolicy());
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().kind, core::RunErrorKind::CheckFailed)
        << result.error();
    // Caught at the corrupted transition itself, naming the node whose
    // line was flipped.
    EXPECT_NE(result.error().message.find(
                  "target: node 1 owns block 9 but the directory names "
                  "owner -1"),
              std::string::npos)
        << result.error();
    EXPECT_EQ(fault::injector().fired(fault::Kind::CorruptTransition),
              1u);
}

TEST(Chaos, DeadWorkerHaltsEngineWithoutAnyBudget)
{
    // A worker that dies mid-run leaves its peers spinning at a
    // barrier in *simulated* time, so no watchdog ever trips.  The
    // runtime must halt the engine itself the moment the worker's
    // exception is captured — even with every budget field unlimited —
    // instead of dispatching spin events forever.
    fault::ScopedPlan scoped(
        fault::Plan::parse("corrupt@30; seed=5"));
    core::RunPolicy unbounded;
    unbounded.maxAttempts = 1;
    unbounded.budget = sim::RunBudget{}; // All zero: no limits at all.
    const auto result = core::runOneSafe(chaosConfig(), unbounded);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().kind, core::RunErrorKind::CheckFailed)
        << result.error();
}

TEST(Chaos, RetryRecoversFromTransientCorruption)
{
    // The injector latches each spec once per arm(): the first attempt
    // hits the corruption and fails its coherence check, the policy
    // retry re-runs the point cleanly.  This is exactly the transient
    // failure the retry exists for.
    fault::ScopedPlan scoped(
        fault::Plan::parse("corrupt@30; seed=5"));
    const auto result =
        core::runOneSafe(chaosConfig(), chaosPolicy(/*attempts=*/2));
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(fault::injector().fired(fault::Kind::CorruptTransition),
              1u);
}

TEST(Chaos, DroppedOverheadBreaksConservation)
{
    fault::ScopedPlan scoped(fault::Plan::parse("drop@25"));
    const auto result = core::runOneSafe(chaosConfig(), chaosPolicy());
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().kind, core::RunErrorKind::CheckFailed)
        << result.error();
    EXPECT_NE(result.error().message.find("overhead buckets"),
              std::string::npos)
        << result.error().message;
    EXPECT_EQ(fault::injector().fired(fault::Kind::DropOverhead), 1u);
}

TEST(Chaos, StalledQueueTripsDeadlockWatchdog)
{
    fault::ScopedPlan scoped(fault::Plan::parse("stall@500"));
    const auto result = core::runOneSafe(chaosConfig(), chaosPolicy());
    ASSERT_FALSE(result.ok());
    const core::RunError &err = result.error();
    EXPECT_EQ(err.kind, core::RunErrorKind::Deadlock) << err;
    EXPECT_NE(err.message.find("no sim-time progress"),
              std::string::npos)
        << err.message;
    EXPECT_EQ(fault::injector().fired(fault::Kind::StallQueue), 1u);
}

TEST(Chaos, RunErrorReportCarriesEngineStateAndDump)
{
    fault::ScopedPlan scoped(fault::Plan::parse("wedge@50:node=0"));
    const auto result = core::runOneSafe(chaosConfig(), chaosPolicy());
    ASSERT_FALSE(result.ok());
    std::ostringstream oss;
    oss << result.error();
    const std::string report = oss.str();
    EXPECT_NE(report.find("run failed:"), std::string::npos) << report;
    EXPECT_NE(report.find("events dispatched"), std::string::npos)
        << report;
    EXPECT_NE(report.find("worker-0"), std::string::npos) << report;
}

TEST(Chaos, ReplayHonoursTheRunBudgetLikeExecution)
{
    // Execution and replay share one event kernel and dispatch the same
    // schedule, so an event budget trips both at the same count.
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("absim-budget-" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    core::RunConfig config = chaosConfig();
    config.traceDir = dir.string();
    config.mode = core::RunMode::Record;
    const auto recorded = core::runOneSafe(config, chaosPolicy());
    ASSERT_TRUE(recorded.ok()) << recorded.error();
    const std::uint64_t limit = recorded.value().engineEvents / 2;
    ASSERT_GT(limit, 0u);

    core::RunPolicy policy = chaosPolicy();
    policy.budget.maxEvents = limit;
    for (const core::RunMode mode :
         {core::RunMode::Execute, core::RunMode::Replay}) {
        config.mode = mode;
        const auto result = core::runOneSafe(config, policy);
        ASSERT_FALSE(result.ok()) << "mode " << static_cast<int>(mode);
        EXPECT_EQ(result.error().kind, core::RunErrorKind::BudgetExceeded)
            << result.error();
        EXPECT_EQ(result.error().eventsDispatched, limit);
    }
    std::filesystem::remove_all(dir);
}

TEST(Chaos, SweepSurvivesFailedPointAndEmitsManifest)
{
    // Arm a stall that only a multi-processor point is big enough to
    // reach: the sweep must finish, keep the good points, and report
    // the bad one in the failure manifest.
    fault::ScopedPlan scoped(fault::Plan::parse("stall@2000"));
    core::RunConfig base = chaosConfig();
    core::SweepOptions options;
    options.policy = chaosPolicy();
    // A fault-armed sweep must run serially: plans are per-thread and
    // would not reach pool workers.
    options.jobs = 1;
    const auto result = core::sweepFigureSafe(
        "chaos sweep", base, net::TopologyKind::Full,
        core::Metric::ExecTime, {1, 2, 4}, options);

    EXPECT_FALSE(result.complete());
    EXPECT_FALSE(result.failures.empty());
    // Whatever failed is named per machine with a structured kind.
    for (const auto &f : result.failures) {
        EXPECT_FALSE(f.machine.empty());
        EXPECT_FALSE(f.error.empty());
    }

    std::ostringstream manifest;
    core::writeFailureManifest(manifest, result.figure, result.failures);
    const std::string json = manifest.str();
    EXPECT_NE(json.find("\"failures\":["), std::string::npos) << json;
    EXPECT_NE(json.find("\"error\":"), std::string::npos) << json;

    std::ostringstream figure_json;
    core::writeFigureJson(figure_json, result);
    EXPECT_NE(figure_json.str().find("\"complete\":false"),
              std::string::npos)
        << figure_json.str();
}

TEST(Chaos, FaultPlanIsConfinedToTheThreadThatArmedIt)
{
    // Two concurrent simulations: one thread arms a wedge plan and must
    // fail; the other runs clean and must succeed, no matter how the
    // two interleave.  This is the isolation contract of the per-thread
    // injector (fault::injector()) and core::RunContext.
    core::RunResult faulty = core::RunError{};
    core::RunResult clean = core::RunError{};

    std::thread chaos_thread([&] {
        fault::ScopedPlan scoped(fault::Plan::parse("wedge@50:node=1"));
        faulty = core::runOneSafe(chaosConfig(), chaosPolicy());
        // The latched firing state stays visible on this thread.
        EXPECT_EQ(fault::injector().fired(fault::Kind::WedgeFiber), 1u);
    });
    std::thread clean_thread([&] {
        EXPECT_FALSE(fault::armed());
        clean = core::runOneSafe(chaosConfig(), chaosPolicy());
        EXPECT_EQ(fault::injector().fired(fault::Kind::WedgeFiber), 0u);
    });
    chaos_thread.join();
    clean_thread.join();

    EXPECT_FALSE(faulty.ok());
    ASSERT_TRUE(clean.ok());
    EXPECT_GT(clean.value().execTime(), 0u);
    // The arming thread is gone; this thread never saw its plan.
    EXPECT_FALSE(fault::armed());
}

} // namespace
