/**
 * @file
 * Unit tests for the discrete-event kernel: event queue ordering, fibers,
 * processes, and simulated-time resources.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "check/check.hh"
#include "machine_fixture.hh"
#include "sim/event_queue.hh"
#include "sim/fiber.hh"
#include "sim/process.hh"
#include "sim/resource.hh"
#include "sim/task.hh"

namespace {

using namespace absim::sim;

TEST(EventQueue, StartsAtZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.nextEventTime(), kTickMax);
}

TEST(EventQueue, DispatchesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickFifoBySchedulingOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.schedule(2, [&] {
            ++fired;
            eq.schedule(3, [&] { ++fired; });
        });
    });
    eq.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eq.now(), 3u);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    EXPECT_FALSE(eq.runUntil(15));
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.runUntil(100));
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, CountsDispatchedEvents)
{
    EventQueue eq;
    for (int i = 0; i < 7; ++i)
        eq.schedule(static_cast<Tick>(i), [] {});
    eq.run();
    EXPECT_EQ(eq.dispatched(), 7u);
}

TEST(Fiber, RunsToCompletion)
{
    bool ran = false;
    Fiber f([&] { ran = true; });
    EXPECT_FALSE(f.finished());
    f.resume();
    EXPECT_TRUE(ran);
    EXPECT_TRUE(f.finished());
}

TEST(Fiber, YieldSuspendsAndResumes)
{
    int step = 0;
    Fiber f([&] {
        step = 1;
        Fiber::yield();
        step = 2;
        Fiber::yield();
        step = 3;
    });
    f.resume();
    EXPECT_EQ(step, 1);
    f.resume();
    EXPECT_EQ(step, 2);
    f.resume();
    EXPECT_EQ(step, 3);
    EXPECT_TRUE(f.finished());
}

TEST(Fiber, CurrentTracksExecution)
{
    EXPECT_EQ(Fiber::current(), nullptr);
    Fiber *seen = nullptr;
    Fiber f([&] { seen = Fiber::current(); });
    f.resume();
    EXPECT_EQ(seen, &f);
    EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, HandOffSwitchesStraightIntoTheNextFiber)
{
    std::vector<int> trace;
    Fiber b([&] {
        trace.push_back(2);
        Fiber::yield();
        trace.push_back(4);
    });
    Fiber a([&] {
        trace.push_back(1);
        Fiber::handOff(b);
        trace.push_back(5);
    });
    b.resume();
    a.resume(); // a hands off to b, which finishes: back here, not in a.
    EXPECT_EQ(trace, (std::vector<int>{2, 1, 4}));
    EXPECT_TRUE(b.finished());
    EXPECT_FALSE(a.finished());
    EXPECT_EQ(Fiber::current(), nullptr);
    a.resume();
    EXPECT_EQ(trace, (std::vector<int>{2, 1, 4, 5}));
    EXPECT_TRUE(a.finished());
}

TEST(Process, DelayAdvancesSimulatedTime)
{
    EventQueue eq;
    Tick seen = 0;
    Process p(eq, "t", [&] {
        Process::current()->delay(100);
        seen = eq.now();
        Process::current()->delay(50);
        seen = eq.now();
    });
    p.start(0);
    eq.run();
    EXPECT_EQ(seen, 150u);
    EXPECT_TRUE(p.finished());
}

TEST(Process, SuspendWake)
{
    EventQueue eq;
    Tick woke_at = 0;
    Process sleeper(eq, "sleeper", [&] {
        Process::current()->suspend();
        woke_at = eq.now();
    });
    Process waker(eq, "waker", [&] {
        Process::current()->delay(42);
        sleeper.wake();
    });
    sleeper.start(0);
    waker.start(0);
    eq.run();
    EXPECT_EQ(woke_at, 42u);
}

TEST(Process, SpawnDetachedSelfCleans)
{
    EventQueue eq;
    int ran = 0;
    spawnDetached(eq, "helper", [&] {
        Process::current()->delay(5);
        ++ran;
    }, 0);
    eq.run();
    EXPECT_EQ(ran, 1);
}

TEST(Process, BlockHandsOffToTheNextStartedProcess)
{
    // Both first entries come from the scheduler.  Then second blocks
    // behind first's wake-up at 10 and switches straight into it, and
    // first blocks behind second's same-tick wake-up (queued first) and
    // switches back.  Second finishes, so first@20 comes from the
    // scheduler again.
    EventQueue eq;
    std::vector<std::string> trace;
    Process first(eq, "first", [&] {
        Process::current()->delay(10);
        trace.push_back("first@" + std::to_string(eq.now()));
        Process::current()->delay(10);
        trace.push_back("first@" + std::to_string(eq.now()));
    });
    Process second(eq, "second", [&] {
        Process::current()->delay(10);
        trace.push_back("second@" + std::to_string(eq.now()));
    });
    first.start(0);
    second.start(0);
    eq.run();
    EXPECT_EQ(trace, (std::vector<std::string>{"first@10", "second@10",
                                               "first@20"}));
    EXPECT_EQ(eq.handedOff(), 2u);
    EXPECT_EQ(eq.advancedInPlace(), 0u);
    EXPECT_EQ(eq.dispatched(), 5u);
    EXPECT_TRUE(first.finished());
    EXPECT_TRUE(second.finished());
}

TEST(Process, HandedOffDetachedProcessIsDeletedOnTheSchedulerStack)
{
    EventQueue eq;
    bool on_scheduler = false;
    bool main_done = false;
    Process *helper = spawnDetached(eq, "helper", [&] {
        Process::current()->delay(10);
    }, 0);
    helper->setOnFinish([&](Process *p) {
        on_scheduler =
            Fiber::current() == nullptr && Process::current() == nullptr;
        delete p;
    });
    // main blocks at 10 behind helper's wake-up and hands off to it; the
    // helper finishes on a fiber it was handed, which still returns to
    // the scheduler, where onFinish deletes it.
    Process main(eq, "main", [&] {
        Process::current()->delay(10);
        main_done = true;
    });
    main.start(0);
    eq.run();
    EXPECT_EQ(eq.handedOff(), 1u);
    EXPECT_TRUE(on_scheduler);
    EXPECT_TRUE(main_done);
    EXPECT_TRUE(eq.blockedProcesses().empty());
}

TEST(Process, ClobberedCanaryOnAHandedOffFiberIsACheckFailure)
{
    EventQueue eq;
    Fiber *victim_fiber = nullptr;
    int victim_finishes = 0;
    Process victim(eq, "victim", [&] {
        victim_fiber = Fiber::current();
        Process::current()->delay(10);
    });
    victim.setOnFinish([&](Process *) { ++victim_finishes; });
    // main clobbers the suspended victim's canary, then hands off to
    // it.  The victim finishes and returns to the scheduler inside
    // main's resume: the canary checked there must be the victim's.
    Process main(eq, "main", [&] {
        victim_fiber->corruptStackCanaryForTest();
        Process::current()->delay(10);
    });
    victim.start(0);
    main.start(0);
    absim::check::ScopedThrowOnFailure guard;
    try {
        eq.run();
        ADD_FAILURE() << "the clobbered canary went unnoticed";
    } catch (const absim::check::CheckFailure &e) {
        EXPECT_NE(std::string(e.what()).find("fiber stack overflow"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(eq.handedOff(), 1u);
    EXPECT_TRUE(victim.finished());

    // The failure left nothing behind for the next run on this thread:
    // its first resume that yields (behind the event at 1) must not
    // finish the victim.
    EventQueue next;
    next.schedule(1, [] {});
    int finished = 0;
    Process *p = spawnDetached(next, "after", [] {
        Process::current()->delay(5);
    }, 0);
    p->setOnFinish([&](Process *q) {
        ++finished;
        delete q;
    });
    next.run();
    EXPECT_EQ(finished, 1);
    EXPECT_EQ(victim_finishes, 0);
}

TEST(Process, WorkerExceptionOnAHandedOffFiberSurfacesFromRun)
{
    // Worker 0 blocks first and yields; worker 1 then blocks behind
    // worker 0's wake-up and hands off to it, and worker 0 throws on
    // the fiber it was handed.
    absim::test::MachineHarness h(absim::mach::MachineKind::LogP,
                                  absim::net::TopologyKind::Full, 2);
    std::uint64_t handed_at_throw = 0;
    try {
        h.run([&](absim::rt::Proc &p) {
            p.compute(10 + 10 * p.node());
            p.syncNow();
            if (p.node() == 0) {
                handed_at_throw = h.eq.handedOff();
                throw std::runtime_error("worker 0 failed");
            }
        });
        ADD_FAILURE() << "the worker's exception was lost";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "worker 0 failed");
    }
    EXPECT_EQ(handed_at_throw, 1u);
}

TEST(FifoMutex, UncontendedAcquireIsFree)
{
    EventQueue eq;
    FifoMutex m;
    Duration waited = 99;
    Process p(eq, "p", [&] {
        waited = m.acquire();
        m.release();
    });
    p.start(0);
    eq.run();
    EXPECT_EQ(waited, 0u);
    EXPECT_FALSE(m.locked());
}

TEST(FifoMutex, GrantsInFifoOrderWithWaitTimes)
{
    EventQueue eq;
    FifoMutex m;
    std::vector<int> grant_order;
    std::vector<Duration> waits(3);

    // p0 takes the lock at t=0 and holds it until t=100.
    Process p0(eq, "p0", [&] {
        m.acquire();
        grant_order.push_back(0);
        Process::current()->delay(100);
        m.release();
    });
    // p1 requests at t=10, p2 at t=20; they must be served in that order.
    Process p1(eq, "p1", [&] {
        Process::current()->delay(10);
        waits[1] = m.acquire();
        grant_order.push_back(1);
        Process::current()->delay(100);
        m.release();
    });
    Process p2(eq, "p2", [&] {
        Process::current()->delay(20);
        waits[2] = m.acquire();
        grant_order.push_back(2);
        m.release();
    });
    p0.start(0);
    p1.start(0);
    p2.start(0);
    eq.run();

    EXPECT_EQ(grant_order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(waits[1], 90u);  // Requested at 10, granted at 100.
    EXPECT_EQ(waits[2], 180u); // Requested at 20, granted at 200.
    EXPECT_EQ(m.totalWait(), 270u);
}

// A mutex owns no memory (its waiters queue in their own frames), so a
// directory entry or a link needs no destructor; and a queued awaiter
// must never move.
static_assert(std::is_trivially_destructible_v<FifoMutex>);
static_assert(!std::is_copy_constructible_v<FifoMutex::Acquire> &&
              !std::is_move_constructible_v<FifoMutex::Acquire>);
static_assert(!std::is_copy_assignable_v<FifoMutex::Acquire> &&
              !std::is_move_assignable_v<FifoMutex::Acquire>);

/** A coroutine that requests @p m at tick @p at, holds it for @p hold
 *  ticks, and records its grant and wait. */
Task<>
coHolder(EventQueue &eq, FifoMutex &m, Tick at, Duration hold, int id,
         std::vector<int> &grant_order, std::vector<Duration> &waits)
{
    co_await Delay{eq, at};
    waits[id] = co_await m.lock(eq);
    grant_order.push_back(id);
    co_await Delay{eq, eq.now() + hold};
    m.release();
}

TEST(FifoMutex, CoroutineWaitersGrantInFifoOrderWithWaitTimes)
{
    // GrantsInFifoOrderWithWaitTimes with every party a coroutine.
    EventQueue eq;
    FifoMutex m;
    std::vector<int> grant_order;
    std::vector<Duration> waits(3, 99);
    const Tick at[] = {0, 10, 20};
    const Duration hold[] = {100, 100, 0};
    for (int id = 0; id < 3; ++id)
        spawn(eq, "holder", 0, [&, id] {
            return coHolder(eq, m, at[id], hold[id], id, grant_order,
                            waits);
        });
    eq.run();

    EXPECT_EQ(grant_order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(waits, (std::vector<Duration>{0, 90, 180}));
    EXPECT_EQ(m.totalWait(), 270u);
    EXPECT_FALSE(m.locked());
    EXPECT_EQ(m.waiters(), 0u);
}

TEST(FifoMutex, MixedFiberAndCoroutineWaitersShareOneFifo)
{
    // Fibers (ids 0, 2) and coroutines (ids 1, 3) alternate in one
    // queue: each is served in request order, each waits as long as it
    // would among its own kind.
    EventQueue eq;
    FifoMutex m;
    std::vector<int> grant_order;
    std::vector<Duration> waits(4, 99);
    std::size_t queued_at_50 = 0;
    Process p0(eq, "p0", [&] {
        waits[0] = m.acquire();
        grant_order.push_back(0);
        Process::current()->delay(100);
        m.release();
    });
    Process p2(eq, "p2", [&] {
        Process::current()->delay(20);
        waits[2] = m.acquire();
        grant_order.push_back(2);
        Process::current()->delay(100);
        m.release();
    });
    Process probe(eq, "probe", [&] {
        Process::current()->delay(50);
        queued_at_50 = m.waiters();
    });
    p0.start(0);
    spawn(eq, "c1", 0, [&] {
        return coHolder(eq, m, 10, 100, 1, grant_order, waits);
    });
    p2.start(0);
    spawn(eq, "c3", 0, [&] {
        return coHolder(eq, m, 30, 0, 3, grant_order, waits);
    });
    probe.start(0);
    eq.run();

    EXPECT_EQ(grant_order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(waits, (std::vector<Duration>{0, 90, 180, 270}));
    EXPECT_EQ(m.totalWait(), 540u);
    EXPECT_EQ(queued_at_50, 3u);
    EXPECT_FALSE(m.locked());
}

TEST(Latch, AwaitBlocksUntilZero)
{
    EventQueue eq;
    Latch latch(3);
    Tick released_at = 0;
    Process waiter(eq, "waiter", [&] {
        latch.await();
        released_at = eq.now();
    });
    for (int i = 1; i <= 3; ++i) {
        spawnDetached(eq, "helper", [&latch, i] {
            Process::current()->delay(static_cast<Duration>(i * 10));
            latch.countDown();
        }, 0);
    }
    waiter.start(0);
    eq.run();
    EXPECT_EQ(released_at, 30u);
}

TEST(Latch, AwaitWithZeroCountReturnsImmediately)
{
    EventQueue eq;
    Latch latch(1);
    bool done = false;
    Process p(eq, "p", [&] {
        latch.countDown();
        latch.await();
        done = true;
    });
    p.start(0);
    eq.run();
    EXPECT_TRUE(done);
}

} // namespace
