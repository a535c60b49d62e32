/**
 * @file
 * Differential test of the calendar-queue EventQueue against a
 * reference std::priority_queue model.
 *
 * The production queue is a two-tier calendar/overflow structure with
 * pooled nodes (see sim/event_queue.hh); the reference model is the
 * textbook binary heap ordered by (tick, seq) that the queue replaced.
 * Both execute the same self-expanding workload — every dispatched
 * event derives its children (count and tick deltas) purely from its
 * own id via a seeded Rng, so the workload is identical across
 * implementations *if and only if* they dispatch in the same order.
 * Any divergence (bucket-window bug, overflow re-base bug, FIFO-tie
 * break) desynchronizes the logs at the first wrong event.
 *
 * The second half runs fiber processes and coroutines whose delays the
 * queue may advance in place (EventQueue::advanceInPlace), and whose
 * blocking fibers may hand off straight to the next process to resume
 * (EventQueue::handOffFront), against the same reference heap, in which
 * every delay is a scheduled event, and against a real run in which an
 * armed fault plan that never fires makes every delay take the
 * scheduled path and every block yield to the scheduler.  Logs, budget
 * trips, dispatch counts, clocks and blocked-process dumps must all
 * agree, and the reference predicts both fast paths' counts exactly.
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "check/check.hh"
#include "fault/fault.hh"
#include "sim/event_queue.hh"
#include "sim/process.hh"
#include "sim/rng.hh"
#include "sim/task.hh"
#include "sim/watchdog.hh"

namespace {

using absim::sim::EventQueue;
using absim::sim::Rng;
using absim::sim::Tick;

namespace check = absim::check;

/// One dispatched event in an execution log: (tick, event id).
using LogEntry = std::pair<Tick, std::uint64_t>;

/**
 * Children of event @p id: 0-2 events with mixed tick deltas chosen to
 * cover every queue tier — same-tick ties (delta 0), near-now buckets,
 * deltas straddling the 4096-tick calendar window, and far-future
 * overflow events.  Depends only on (seed, id).
 */
std::vector<Tick>
childDeltas(std::uint64_t seed, std::uint64_t id)
{
    Rng rng(seed ^ (id * 0x9e3779b97f4a7c15ULL));
    const std::uint64_t count = rng.below(3); // Avg 1: stable frontier.
    std::vector<Tick> deltas;
    deltas.reserve(count);
    for (std::uint64_t c = 0; c < count; ++c) {
        const std::uint64_t shape = rng.below(100);
        Tick delta = 0;
        if (shape < 40)
            delta = rng.below(8); // Includes exact same-tick ties.
        else if (shape < 75)
            delta = rng.below(512);
        else if (shape < 95)
            delta = rng.below(8192); // Straddles the calendar window.
        else
            delta = rng.below(1'000'000); // Overflow tier.
        deltas.push_back(delta);
    }
    return deltas;
}

/** The production queue driving the self-expanding workload. */
struct RealRun
{
    std::uint64_t seed;
    std::uint64_t maxEvents;
    /** After this many dispatches, the dispatching callback calls
     *  requestStop() — a faithful mid-run stop.  0: never. */
    std::uint64_t stopAfter = 0;

    EventQueue eq{};
    std::vector<LogEntry> log{};
    std::uint64_t nextId = 0;

    void
    spawn(Tick when)
    {
        const std::uint64_t id = nextId++;
        eq.schedule(when, [this, id] { onDispatch(id); });
    }

    void
    onDispatch(std::uint64_t id)
    {
        log.emplace_back(eq.now(), id);
        for (const Tick delta : childDeltas(seed, id))
            if (nextId < maxEvents)
                spawn(eq.now() + delta);
        if (stopAfter != 0 && log.size() == stopAfter)
            eq.requestStop();
    }

    void
    seedRoots(std::uint64_t roots)
    {
        Rng rng(seed);
        for (std::uint64_t r = 0; r < roots; ++r)
            spawn(rng.below(1024));
    }
};

/** The reference model: a (tick, seq)-ordered binary heap. */
struct RefRun
{
    struct Event
    {
        Tick when;
        std::uint64_t seq;
        std::uint64_t id;
    };
    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            return a.when > b.when ||
                   (a.when == b.when && a.seq > b.seq);
        }
    };

    std::uint64_t seed;
    std::uint64_t maxEvents;
    std::priority_queue<Event, std::vector<Event>, Later> queue{};
    std::vector<LogEntry> log{};
    std::uint64_t nextId = 0;
    std::uint64_t nextSeq = 0;
    Tick now = 0;

    void
    spawn(Tick when)
    {
        queue.push(Event{when, nextSeq++, nextId++});
    }

    void
    seedRoots(std::uint64_t roots)
    {
        Rng rng(seed);
        for (std::uint64_t r = 0; r < roots; ++r)
            spawn(rng.below(1024));
    }

    /** Pop + expand one event; mirrors one EventQueue dispatch. */
    void
    step()
    {
        const Event ev = queue.top();
        queue.pop();
        now = ev.when;
        log.emplace_back(ev.when, ev.id);
        for (const Tick delta : childDeltas(seed, ev.id))
            if (nextId < maxEvents)
                spawn(now + delta);
    }

    void
    run()
    {
        while (!queue.empty())
            step();
    }
};

void
expectSameLogs(const std::vector<LogEntry> &real,
               const std::vector<LogEntry> &ref)
{
    ASSERT_EQ(real.size(), ref.size());
    for (std::size_t i = 0; i < real.size(); ++i) {
        ASSERT_EQ(real[i].first, ref[i].first)
            << "dispatch " << i << " fired at the wrong tick";
        ASSERT_EQ(real[i].second, ref[i].second)
            << "dispatch " << i << " fired the wrong event";
    }
}

TEST(EventQueueDiff, MatchesReferenceHeapOnMixedWorkload)
{
    constexpr std::uint64_t kEvents = 1'000'000;
    constexpr std::uint64_t kRoots = 4096;
    constexpr std::uint64_t kSeed = 0xD1FF;

    RealRun real{kSeed, kEvents};
    real.seedRoots(kRoots);
    real.eq.run();

    RefRun ref{kSeed, kEvents};
    ref.seedRoots(kRoots);
    ref.run();

    EXPECT_EQ(real.log.size(), kEvents);
    expectSameLogs(real.log, ref.log);
    EXPECT_EQ(real.eq.pending(), 0u);
    EXPECT_EQ(real.eq.dispatched(), ref.log.size());
}

TEST(EventQueueDiff, SameTickBurstsKeepFifoOrder)
{
    // Heavy same-tick contention: ~20k events over 16k ticks, so FIFO
    // ties are resolved in buckets, in the overflow heap, and across
    // the window re-base refill.
    EventQueue eq;
    std::vector<std::uint64_t> order;
    std::uint64_t id = 0;
    Rng rng(42);
    for (int round = 0; round < 20'000; ++round) {
        eq.schedule(rng.below(16'384),
                    [&order, my = id] { order.push_back(my); });
        ++id;
    }
    eq.run();

    // Reference: pop ids in (when, insertion) order from the heap.
    std::vector<std::uint64_t> expect;
    {
        RefRun ref{0, 0};
        Rng rng2(42);
        for (int round = 0; round < 20'000; ++round)
            ref.spawn(rng2.below(16'384));
        while (!ref.queue.empty()) {
            expect.push_back(ref.queue.top().id);
            ref.queue.pop();
        }
    }
    ASSERT_EQ(order.size(), expect.size());
    EXPECT_EQ(order, expect);
}

TEST(EventQueueDiff, RequestStopMidRunAgreesWithReference)
{
    constexpr std::uint64_t kEvents = 200'000;
    constexpr std::uint64_t kStopAfter = 60'000;
    constexpr std::uint64_t kSeed = 0x57CF;

    RealRun real{kSeed, kEvents, kStopAfter};
    real.seedRoots(1024);
    real.eq.run();
    const std::size_t pending_at_stop = real.eq.pending();
    real.eq.run(); // Sticky: dispatches nothing further.

    RefRun ref{kSeed, kEvents};
    ref.seedRoots(1024);
    while (ref.log.size() < kStopAfter && !ref.queue.empty())
        ref.step();

    ASSERT_EQ(real.log.size(), kStopAfter);
    expectSameLogs(real.log, ref.log);
    EXPECT_TRUE(real.eq.stopRequested());
    EXPECT_EQ(real.eq.pending(), pending_at_stop);
    EXPECT_EQ(real.eq.pending(), ref.queue.size());
    EXPECT_EQ(real.eq.dispatched(), kStopAfter);
}

TEST(EventQueueDiff, RunUntilWindowsMatchReference)
{
    constexpr std::uint64_t kEvents = 100'000;
    constexpr std::uint64_t kSeed = 0xFACE;

    RealRun real{kSeed, kEvents};
    RefRun ref{kSeed, kEvents};
    real.seedRoots(1024);
    ref.seedRoots(1024);

    constexpr Tick kStep = 1000;
    Tick limit = kStep;
    bool drained = false;
    while (!drained) {
        drained = real.eq.runUntil(limit);
        while (!ref.queue.empty() && ref.queue.top().when <= limit)
            ref.step();

        // Cross-check queue introspection at every window boundary.
        ASSERT_EQ(real.eq.pending(), ref.queue.size());
        if (!ref.queue.empty()) {
            ASSERT_EQ(real.eq.nextEventTime(), ref.queue.top().when);
        }
        limit += kStep;
    }
    EXPECT_TRUE(ref.queue.empty());
    expectSameLogs(real.log, ref.log);
}

// ---------------------------------------------------------------------------
// Calendar-window edge suite.
//
// These tests pin the exact seams of the two-tier structure: the
// window re-base boundary, the bucket/overflow-heap crossover for
// same-tick FIFO ties, and far-past events (legal with causality
// checks off) arriving after the window has re-based beyond them.
// The window width mirrors EventQueue::kBuckets (private); if the
// calendar is ever resized these tests must move with it.
// ---------------------------------------------------------------------------

constexpr Tick kWindow = 4096;

TEST(EventQueueDiff, RebaseBoundaryTickDispatchesInOrder)
{
    // Events at kWindow-1 (last bucket of the initial window), kWindow
    // (first overflow tick), and kWindow+1.  Draining the calendar
    // must re-base the window onto the overflow front and pull the
    // boundary events across without reordering; while dispatching at
    // the boundary, newly scheduled events land on both sides of the
    // *new* window limit.
    EventQueue eq;
    std::vector<LogEntry> log;
    const auto note = [&log, &eq](std::uint64_t id) {
        log.emplace_back(eq.now(), id);
    };
    eq.schedule(kWindow - 1, [&] {
        note(0);
        // New window after re-base is [kWindow, 2*kWindow): one event
        // in its last bucket, one just past its limit.
        eq.schedule(2 * kWindow - 1, [&] { note(4); });
        eq.schedule(2 * kWindow, [&] { note(5); });
    });
    eq.schedule(kWindow, [&] { note(1); });
    eq.schedule(kWindow, [&] { note(2); }); // Same-tick tie at boundary.
    eq.schedule(kWindow + 1, [&] { note(3); });
    eq.run();

    const std::vector<LogEntry> expect{
        {kWindow - 1, 0}, {kWindow, 1},        {kWindow, 2},
        {kWindow + 1, 3}, {2 * kWindow - 1, 4}, {2 * kWindow, 5}};
    EXPECT_EQ(log, expect);
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueueDiff, SameTickFifoAcrossBucketOverflowSeam)
{
    // Five events at the same tick T reach the queue through both
    // tiers: ids 0-2 are scheduled while T is beyond the window limit
    // (overflow heap), the window then re-bases so T is bucketed, and
    // ids 3-4 are scheduled straight into T's bucket.  FIFO order must
    // hold across the seam: the heap drains same-tick events in seq
    // order ahead of any new bucket appends.
    constexpr Tick kT = 5000;
    EventQueue eq;
    std::vector<std::uint64_t> order;
    eq.schedule(kT, [&] { order.push_back(0); }); // Overflow (T >= 4096).
    eq.schedule(kT, [&] { order.push_back(1); });
    eq.schedule(10, [&] {
        eq.schedule(kT, [&] { order.push_back(2); }); // Still overflow.
    });
    // Dispatched at 4500 *after* the re-base put kT inside the window,
    // so these two append directly to the bucket behind ids 0-2.
    eq.schedule(4500, [&] {
        eq.schedule(kT, [&] { order.push_back(3); });
        eq.schedule(kT, [&] { order.push_back(4); });
    });
    eq.run();
    EXPECT_EQ(order,
              (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

TEST(EventQueueDiff, FarPastEventsAfterRebaseMatchReference)
{
    // With causality checks off (a legal configuration: trace replay
    // and some fault-injection harnesses schedule behind the clock),
    // past-dated events must ride the overflow heap — bucketing them
    // would hide them behind the circular scan start — and still
    // dispatch in global (tick, seq) order.  The scenario forces the
    // nasty case: the window has re-based far beyond the past tick
    // before the past event is scheduled, and popNext must not re-base
    // backwards onto it.
    check::State relaxed;
    relaxed.options.causality = false;
    check::ScopedState scope(relaxed);

    EventQueue eq;
    std::vector<LogEntry> log;
    const auto note = [&log, &eq](std::uint64_t id) {
        log.emplace_back(eq.now(), id);
    };
    eq.schedule(20'000, [&] { // Window long since re-based past 5.
        note(0);
        eq.schedule(5, [&] { note(1); });     // Far past.
        eq.schedule(5, [&] { note(2); });     // Same-tick past tie.
        eq.schedule(19'000, [&] { note(3); }); // Past, below windowBase.
        eq.schedule(20'001, [&] { note(4); }); // Normal future event.
    });
    eq.schedule(30'000, [&] { note(5); });
    eq.run();

    // The clock runs backwards to serve the past events, then forward
    // again; order is global (tick, seq) exactly as the reference heap
    // would produce.
    const std::vector<LogEntry> expect{{20'000, 0}, {5, 1},
                                       {5, 2},      {19'000, 3},
                                       {20'001, 4}, {30'000, 5}};
    EXPECT_EQ(log, expect);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.dispatched(), expect.size());
}

/**
 * The sliding-window workload: a chain of links kLinkGap ticks apart
 * carries the clock past the initial [0, kWindow) window; past it,
 * every link schedules a burst at now+1 ... now+kWindow+1.  The window
 * slides to [now, now+kWindow) at each link, so the burst's last ticks
 * ride the overflow heap while the rest are bucketed, and the next
 * link's burst puts same-tick events into buckets behind them: the
 * deltas kWindow-kLinkGap-1 ... kWindow-kLinkGap+1 of link i+1 hit the
 * ticks that link i's deltas kWindow-1 ... kWindow+1 sent to overflow.
 * Calls @p spawn(delta, is_link) for each child of a link at @p now.
 */
template <typename Spawn>
void
slidingChildren(Tick now, Spawn &&spawn)
{
    constexpr Tick kLinkGap = 1500;
    constexpr Tick kEnd = 12 * kWindow;
    if (now + kLinkGap <= kEnd)
        spawn(kLinkGap, true);
    if (now < kWindow)
        return;
    for (Tick d = 1; d <= kWindow + 1; d += 97)
        spawn(d, false);
    for (const Tick d : {Tick{0}, Tick{1}, kWindow - kLinkGap - 1,
                         kWindow - kLinkGap, kWindow - kLinkGap + 1,
                         kWindow - 1, kWindow - 1, kWindow, kWindow,
                         kWindow + 1, kWindow + 1})
        spawn(d, false);
}

TEST(EventQueueDiff, SlidingWindowBurstsMatchReference)
{
    EventQueue eq;
    std::vector<LogEntry> real_log;
    std::uint64_t real_next = 0;
    std::function<void(Tick, bool)> real_spawn = [&](Tick when,
                                                     bool is_link) {
        const std::uint64_t id = real_next++;
        eq.schedule(when, [&, id, is_link] {
            real_log.emplace_back(eq.now(), id);
            if (is_link)
                slidingChildren(eq.now(), [&](Tick d, bool link) {
                    real_spawn(eq.now() + d, link);
                });
        });
    };

    // The reference heap carries each event's link flag in a side
    // table indexed by id (ids are dense).
    RefRun ref{0, 0};
    std::vector<bool> ref_is_link;
    std::vector<LogEntry> ref_log;
    const auto ref_spawn = [&](Tick when, bool is_link) {
        ref_is_link.push_back(is_link);
        ref.spawn(when);
    };
    const auto ref_step = [&] {
        const RefRun::Event ev = ref.queue.top();
        ref.queue.pop();
        ref.now = ev.when;
        ref_log.emplace_back(ev.when, ev.id);
        if (ref_is_link[ev.id])
            slidingChildren(ref.now, [&](Tick d, bool link) {
                ref_spawn(ref.now + d, link);
            });
    };

    real_spawn(0, true);
    ref_spawn(0, true);

    // Interleave runUntil stops; at each stop during the chain,
    // schedule from outside the dispatch loop onto both sides of the
    // window limit.
    constexpr Tick kStep = 777;
    bool drained = false;
    for (Tick limit = kStep; !drained; limit += kStep) {
        drained = eq.runUntil(limit);
        while (!ref.queue.empty() && ref.queue.top().when <= limit)
            ref_step();
        ASSERT_EQ(eq.pending(), ref.queue.size());
        ASSERT_EQ(eq.now(), ref.now);
        if (!ref.queue.empty()) {
            ASSERT_EQ(eq.nextEventTime(), ref.queue.top().when);
        }
        if (!drained && limit < 12 * kWindow) {
            for (const Tick d : {kWindow - 1, kWindow, kWindow + 1}) {
                real_spawn(eq.now() + d, false);
                ref_spawn(ref.now + d, false);
            }
        }
    }
    EXPECT_TRUE(ref.queue.empty());
    EXPECT_GT(real_log.size(), 1000u);
    EXPECT_GT(real_log.back().first, 12 * kWindow);
    expectSameLogs(real_log, ref_log);
}

TEST(EventQueueDiff, WindowStraddlingWorkloadMatchesReference)
{
    // Adversarial differential run: every child delta lands within a
    // few ticks of the kWindow boundary (just inside, exactly at, just
    // past), so nearly every dispatch stresses the enqueue-side
    // window test and the drain-side re-base.  The generic mixed
    // workload rarely concentrates here; this one does nothing else.
    constexpr std::uint64_t kEvents = 50'000;
    constexpr std::uint64_t kSeed = 0xB0DE;

    EventQueue eq;
    std::vector<LogEntry> real_log;
    std::uint64_t next_id = 0;
    std::function<void(std::uint64_t)> dispatch =
        [&](std::uint64_t id) {
            real_log.emplace_back(eq.now(), id);
            Rng rng(kSeed ^ (id * 0x9e3779b97f4a7c15ULL));
            for (std::uint64_t c = 0; c < 2; ++c)
                if (next_id < kEvents) {
                    const std::uint64_t child = next_id++;
                    const Tick when =
                        eq.now() + kWindow - 2 + rng.below(5);
                    eq.schedule(when,
                                [&dispatch, child] { dispatch(child); });
                }
        };
    {
        const std::uint64_t root = next_id++;
        eq.schedule(0, [&dispatch, root] { dispatch(root); });
    }
    eq.run();

    // Reference heap replaying the identical derivation rule.
    RefRun ref{kSeed, kEvents};
    std::vector<LogEntry> ref_log;
    {
        ref.spawn(0);
        while (!ref.queue.empty()) {
            const auto ev = ref.queue.top();
            ref.queue.pop();
            ref.now = ev.when;
            ref_log.emplace_back(ev.when, ev.id);
            Rng rng(kSeed ^ (ev.id * 0x9e3779b97f4a7c15ULL));
            for (std::uint64_t c = 0; c < 2; ++c)
                if (ref.nextId < kEvents)
                    ref.spawn(ref.now + kWindow - 2 + rng.below(5));
        }
    }
    EXPECT_EQ(real_log.size(), kEvents);
    expectSameLogs(real_log, ref_log);
}

// ---------------------------------------------------------------------------
// Processes and coroutines: delays the queue may advance in place.
//
// Actors log a step, sometimes schedule plain events, and delay.  Fiber
// actors are sim::Process (Process::delay), coroutine actors co_await
// sim::Delay: some created before run() starts (their first delay is
// necessarily scheduled), some spawned by plain events through
// sim::spawn (the detach path).  Delays mix self-next ticks, same-tick
// ties, ticks near the calendar window and overflow ticks.
// ---------------------------------------------------------------------------

namespace sim = absim::sim;
namespace fault = absim::fault;

struct ActorWorkload
{
    std::uint64_t seed = 1;
    std::uint32_t fibers = 6;
    std::uint32_t coroutines = 6;
    std::uint32_t steps = 300;
    std::uint64_t maxPlain = 20'000;
    std::uint64_t maxSpawned = 0; ///< Coroutine actors plain events spawn.
    /** From this step on, actor 0 only delays zero ticks: a livelock
     *  whose wake-ups are all strictly first.  0: never. */
    std::uint64_t spinFrom = 0;
    std::uint64_t stopAt = 0;       ///< requestStop at this log length.
    std::uint64_t stallAt = 0;      ///< StallQueue fault dispatch; 0: none.
    sim::RunBudget budget;
};

constexpr std::uint64_t kActorTag = std::uint64_t{1} << 63;

std::uint64_t
actorTag(std::uint64_t actor, std::uint64_t step)
{
    return kActorTag | actor << 32 | step;
}

Rng
drawFor(const ActorWorkload &w, std::uint64_t salt, std::uint64_t a,
        std::uint64_t b)
{
    return Rng(w.seed ^ (salt * 0xd6e8feb86659fd93ULL) ^
               (a * 0x9e3779b97f4a7c15ULL) ^ (b * 0xc2b2ae3d27d4eb4fULL));
}

Tick
actorRoot(const ActorWorkload &w, std::uint64_t a)
{
    return drawFor(w, 1, a, 0).below(2048);
}

Tick
actorDelay(const ActorWorkload &w, std::uint64_t a, std::uint64_t s)
{
    if (a == 0 && w.spinFrom != 0 && s >= w.spinFrom)
        return 0;
    Rng rng = drawFor(w, 2, a, s);
    const std::uint64_t shape = rng.below(100);
    if (shape < 20)
        return 0;
    if (shape < 50)
        return 1 + rng.below(7);
    if (shape < 70)
        return 8 + rng.below(504);
    if (shape < 85)
        return kWindow - 6 + rng.below(12); // Straddles the window.
    return kWindow + 6 + rng.below(200'000); // Overflow tier.
}

/** Plain events an actor step schedules (tick deltas). */
std::vector<Tick>
stepChildren(const ActorWorkload &w, std::uint64_t a, std::uint64_t s)
{
    Rng rng = drawFor(w, 3, a, s);
    std::vector<Tick> out;
    if (rng.below(3) == 0)
        out.push_back(rng.below(2) == 0 ? rng.below(8) : rng.below(6000));
    return out;
}

/** What a plain event does: children, and maybe spawn an actor. */
struct PlainFate
{
    std::vector<Tick> children;
    bool spawn = false;
    Tick spawnDelay = 0;
};

PlainFate
plainFate(const ActorWorkload &w, std::uint64_t id)
{
    Rng rng = drawFor(w, 4, id, 0);
    PlainFate fate;
    if (rng.below(3) == 0)
        fate.children.push_back(rng.below(16));
    fate.spawn = rng.below(16) == 0;
    fate.spawnDelay = rng.below(64);
    return fate;
}

/** How a run ended, in the terms both implementations can report. */
struct Outcome
{
    std::vector<LogEntry> log;
    std::string trip; ///< "", "budget", "deadlock" or "sim-time".
    std::uint64_t dispatched = 0;
    Tick now = 0;
    std::size_t pending = 0;
    std::vector<std::string> blocked; ///< "name state until".
};

std::string
tripKind(const std::string &what)
{
    if (what.rfind("deadlock", 0) == 0)
        return "deadlock";
    if (what.rfind("sim-time", 0) == 0)
        return "sim-time";
    return "budget";
}

/** The real engine running the actor workload. */
struct LiveActors
{
    explicit LiveActors(const ActorWorkload &workload) : w(workload)
    {
        eq.setBudget(w.budget);
        for (std::uint32_t a = 0; a < w.fibers; ++a) {
            procs.push_back(std::make_unique<sim::Process>(
                eq, "actor-" + std::to_string(a), [this, a] { fiber(a); }));
            procs.back()->start(actorRoot(w, a));
        }
        for (std::uint32_t a = w.fibers; a < w.fibers + w.coroutines; ++a)
            tasks.push_back(actor(a, /*from_root=*/true));
    }

    void
    note(std::uint64_t tag)
    {
        log.emplace_back(eq.now(), tag);
        if (w.stopAt != 0 && log.size() == w.stopAt)
            eq.requestStop();
    }

    void
    plain(Tick when)
    {
        const std::uint64_t id = nextPlain++;
        eq.schedule(when, [this, id] { onPlain(id); });
    }

    void
    onPlain(std::uint64_t id)
    {
        note(id);
        const PlainFate fate = plainFate(w, id);
        for (const Tick d : fate.children)
            if (nextPlain < w.maxPlain)
                plain(eq.now() + d);
        if (fate.spawn && spawned < w.maxSpawned) {
            const std::uint64_t a = w.fibers + w.coroutines + spawned++;
            sim::spawn(eq, "spawned", eq.now() + fate.spawnDelay,
                       [this, a] { return actor(a, false); });
        }
    }

    void
    step(std::uint64_t a, std::uint64_t s)
    {
        note(actorTag(a, s));
        for (const Tick d : stepChildren(w, a, s))
            if (nextPlain < w.maxPlain)
                plain(eq.now() + d);
    }

    void
    fiber(std::uint64_t a)
    {
        for (std::uint64_t s = 0; s < w.steps; ++s) {
            step(a, s);
            sim::Process::current()->delay(actorDelay(w, a, s));
        }
    }

    sim::Task<>
    actor(std::uint64_t a, bool from_root)
    {
        if (from_root)
            co_await sim::Delay{eq, actorRoot(w, a)};
        for (std::uint64_t s = 0; s < w.steps; ++s) {
            step(a, s);
            co_await sim::Delay{eq, eq.now() + actorDelay(w, a, s)};
        }
    }

    Outcome
    outcome(const std::string &trip,
            const std::vector<sim::BlockedProcessInfo> &blocked) const
    {
        Outcome out;
        out.log = log;
        out.trip = trip;
        out.dispatched = eq.dispatched();
        out.now = eq.now();
        out.pending = eq.pending();
        for (const sim::BlockedProcessInfo &b : blocked)
            out.blocked.push_back(b.name + " " + b.state + " " +
                                  std::to_string(b.delayedUntil));
        return out;
    }

    const ActorWorkload &w;
    sim::EventQueue eq;
    std::vector<std::unique_ptr<sim::Process>> procs;
    std::vector<sim::Task<>> tasks;
    std::vector<LogEntry> log;
    std::uint64_t nextPlain = 0;
    std::uint64_t spawned = 0;
};

/** How a live run's dispatches bypassed the scheduler. */
struct FastPaths
{
    std::uint64_t inPlace = 0;   ///< advancedInPlace()
    std::uint64_t handedOff = 0; ///< handedOff()
};

/**
 * Run @p w on the real engine.  @p all_scheduled arms a fault plan that
 * never fires, so every delay is scheduled and every block yields to the
 * scheduler (as with w.stallAt, which arms one that does).  @p fast
 * receives the fast-path counters.
 */
Outcome
runLive(const ActorWorkload &w, bool all_scheduled,
        FastPaths *fast = nullptr)
{
    std::unique_ptr<fault::ScopedPlan> plan;
    if (w.stallAt != 0)
        plan = std::make_unique<fault::ScopedPlan>(
            fault::Plan::parse("stall@" + std::to_string(w.stallAt)));
    else if (all_scheduled)
        plan = std::make_unique<fault::ScopedPlan>(
            fault::Plan::parse("stall@1000000000000"));
    LiveActors live(w);
    Outcome out;
    try {
        live.eq.run();
        out = live.outcome("", {});
    } catch (const sim::WatchdogError &e) {
        out = live.outcome(tripKind(e.what()), e.blocked());
        EXPECT_EQ(e.eventsDispatched(), live.eq.dispatched());
        EXPECT_EQ(e.simTime(), live.eq.now());
    }
    if (fast != nullptr)
        *fast = {live.eq.advancedInPlace(), live.eq.handedOff()};
    return out;
}

/** The reference heap running the same workload: every delay is one
 *  scheduled (tick, seq) event, and the budget rules of run(). */
struct RefActors
{
    enum class Kind : std::uint8_t
    {
        Plain,
        Resume,
        Stall,
    };
    struct Event
    {
        Tick when;
        std::uint64_t seq;
        Kind kind;
        std::uint64_t id;
    };
    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            return a.when > b.when ||
                   (a.when == b.when && a.seq > b.seq);
        }
    };
    struct Actor
    {
        std::uint64_t next = 0;
        bool started = false;
        bool finished = false;
        Tick until = 0;
    };

    explicit RefActors(const ActorWorkload &workload) : w(workload)
    {
        actors.resize(w.fibers + w.coroutines);
        for (std::uint32_t a = 0; a < w.fibers + w.coroutines; ++a)
            push(actorRoot(w, a), Kind::Resume, a);
    }

    void
    push(Tick when, Kind kind, std::uint64_t id)
    {
        queue.push(Event{when, nextSeq++, kind, id});
    }

    void
    note(std::uint64_t tag)
    {
        log.emplace_back(now, tag);
        if (w.stopAt != 0 && log.size() == w.stopAt)
            stopped = true;
    }

    void
    plain(Tick when)
    {
        push(when, Kind::Plain, nextPlain++);
    }

    void
    handle(const Event &ev)
    {
        if (ev.kind == Kind::Stall) {
            push(now, Kind::Stall, 0);
            return;
        }
        if (ev.kind == Kind::Plain) {
            note(ev.id);
            const PlainFate fate = plainFate(w, ev.id);
            for (const Tick d : fate.children)
                if (nextPlain < w.maxPlain)
                    plain(now + d);
            if (fate.spawn && spawned < w.maxSpawned) {
                ++spawned;
                actors.emplace_back();
                push(now + fate.spawnDelay, Kind::Resume,
                     actors.size() - 1);
            }
            return;
        }
        Actor &actor = actors[ev.id];
        actor.started = true;
        if (actor.next == w.steps) {
            actor.finished = true;
            return;
        }
        const std::uint64_t s = actor.next++;
        note(actorTag(ev.id, s));
        for (const Tick d : stepChildren(w, ev.id, s))
            if (nextPlain < w.maxPlain)
                plain(now + d);
        actor.until = now + actorDelay(w, ev.id, s);
        // The delay the real queue takes in place: the resume would be
        // strictly first, and nothing in run() could trip on it.
        const bool in_place =
            (queue.empty() || actor.until < queue.top().when) &&
            quiet(actor.until);
        if (in_place) {
            ++selfNext;
            bypassSeq = nextSeq;
        }
        push(actor.until, Kind::Resume, ev.id);
        if (in_place || !isFiber(ev.id))
            return;
        // A fiber actor then blocks, and hands off when the next
        // dispatch resumes another fiber actor that has started.
        const Event &next = queue.top();
        if (next.kind == Kind::Resume && isFiber(next.id) &&
            next.id != ev.id && actors[next.id].started &&
            quiet(next.when)) {
            ++handOffs;
            bypassSeq = next.seq;
        }
    }

    bool
    isFiber(std::uint64_t id) const
    {
        return id < w.fibers;
    }

    /** EventQueue's guard on both fast paths, in reference terms. */
    bool
    quiet(Tick when) const
    {
        const sim::RunBudget &b = w.budget;
        return !stopped && w.stallAt == 0 && when >= now &&
               when <= runLimit &&
               !(b.maxEvents != 0 && dispatched >= b.maxEvents) &&
               !(b.stallDispatchLimit != 0 &&
                 dispatched - lastProgress >= b.stallDispatchLimit) &&
               !(b.maxWallSeconds > 0.0 && dispatched % 1024 == 0) &&
               !(b.maxSimTime != 0 && when > b.maxSimTime);
    }

    /** run() / runUntil(limit): the same checks in the same order. */
    bool
    run(Tick limit = sim::kTickMax, bool enforce_sim_time = true)
    {
        const sim::RunBudget &b = w.budget;
        runLimit = limit;
        while (!queue.empty() && !stopped) {
            if (b.maxEvents != 0 && dispatched >= b.maxEvents) {
                trip = "budget";
                return false;
            }
            if (b.stallDispatchLimit != 0 &&
                dispatched - lastProgress >= b.stallDispatchLimit) {
                trip = "deadlock";
                return false;
            }
            // A wall-clock budget shorter than any 1024 dispatches: the
            // sample at 0 arms it, the next one trips.
            if (b.maxWallSeconds > 0.0 && dispatched != 0 &&
                dispatched % 1024 == 0) {
                trip = "budget";
                return false;
            }
            const Event ev = queue.top();
            if (ev.when > limit)
                return false;
            if (enforce_sim_time && b.maxSimTime != 0 &&
                ev.when > b.maxSimTime) {
                trip = "sim-time";
                return false;
            }
            if (ev.when > now)
                lastProgress = dispatched;
            queue.pop();
            now = ev.when;
            ++dispatched;
            if (ev.seq == bypassSeq)
                bypassSeq = kNoBypass;
            else
                ++schedulerDispatched;
            if (w.stallAt != 0 && !stallFired && dispatched >= w.stallAt) {
                stallFired = true;
                push(now, Kind::Stall, 0);
            }
            handle(ev);
        }
        return queue.empty();
    }

    Outcome
    outcome() const
    {
        Outcome out;
        out.log = log;
        out.trip = trip;
        out.dispatched = dispatched;
        out.now = now;
        out.pending = queue.size();
        if (!trip.empty())
            for (std::uint32_t a = 0; a < w.fibers; ++a) {
                const Actor &actor = actors[a];
                if (actor.finished)
                    continue;
                out.blocked.push_back(
                    "actor-" + std::to_string(a) +
                    (actor.started
                         ? " delayed " + std::to_string(actor.until)
                         : std::string(" runnable 0")));
            }
        return out;
    }

    const ActorWorkload &w;
    std::priority_queue<Event, std::vector<Event>, Later> queue;
    std::vector<Actor> actors;
    std::vector<LogEntry> log;
    std::string trip;
    std::uint64_t nextSeq = 0;
    std::uint64_t nextPlain = 0;
    std::uint64_t spawned = 0;
    std::uint64_t dispatched = 0;
    std::uint64_t lastProgress = 0;
    std::uint64_t selfNext = 0; ///< Delays the queue takes in place.
    std::uint64_t handOffs = 0; ///< Blocks that hand off.
    /** Dispatches the real run() invokes itself: neither of the above. */
    std::uint64_t schedulerDispatched = 0;
    static constexpr std::uint64_t kNoBypass = ~std::uint64_t{0};
    /** The next dispatch, when a fast path takes it instead. */
    std::uint64_t bypassSeq = kNoBypass;
    Tick runLimit = sim::kTickMax;
    Tick now = 0;
    bool stopped = false;
    bool stallFired = false;
};

void
expectSameOutcome(const Outcome &got, const Outcome &want)
{
    EXPECT_EQ(got.trip, want.trip);
    EXPECT_EQ(got.dispatched, want.dispatched);
    EXPECT_EQ(got.now, want.now);
    EXPECT_EQ(got.pending, want.pending);
    EXPECT_EQ(got.blocked, want.blocked);
    expectSameLogs(got.log, want.log);
}

/** The live fast-path counters equal the reference's predictions, and
 *  with the dispatches run() invoked itself they make up dispatched(). */
void
expectSameFastPaths(const FastPaths &fast, const RefActors &ref,
                    const Outcome &live)
{
    EXPECT_EQ(fast.inPlace, ref.selfNext);
    EXPECT_EQ(fast.handedOff, ref.handOffs);
    EXPECT_EQ(fast.handedOff + fast.inPlace + ref.schedulerDispatched,
              live.dispatched);
}

TEST(EventQueueDiff, ActorDelaysMatchReference)
{
    ActorWorkload w;
    w.seed = 0xAC7;
    w.maxSpawned = 40;

    FastPaths fast;
    const Outcome live = runLive(w, false, &fast);
    RefActors ref(w);
    ref.run();
    expectSameOutcome(live, ref.outcome());
    EXPECT_EQ(ref.spawned, w.maxSpawned);
    EXPECT_EQ(live.trip, "");
    EXPECT_EQ(live.pending, 0u);

    // The counters are exact: every delay that was strictly first, and
    // only those, skipped the queue; every block whose next dispatch
    // resumed another started fiber, and only those, handed off.
    expectSameFastPaths(fast, ref, live);
    EXPECT_GT(fast.inPlace, live.dispatched / 10);
    EXPECT_GT(fast.handedOff, 0u);

    // With every delay scheduled and every block yielding, the same run.
    FastPaths scheduled_fast{1, 1};
    const Outcome scheduled = runLive(w, true, &scheduled_fast);
    EXPECT_EQ(scheduled_fast.inPlace, 0u);
    EXPECT_EQ(scheduled_fast.handedOff, 0u);
    expectSameOutcome(scheduled, live);
}

TEST(EventQueueDiff, FiberHandOffsMatchReference)
{
    // Fiber actors only, with few plain events between them: a block
    // that is not advanced in place mostly finds another fiber's resume
    // next and hands off, down chains of fibers before one yields.
    ActorWorkload w;
    w.seed = 0xF1BE;
    w.fibers = 16;
    w.coroutines = 0;
    w.maxPlain = 500;

    FastPaths fast;
    const Outcome live = runLive(w, false, &fast);
    RefActors ref(w);
    ref.run();
    expectSameOutcome(live, ref.outcome());
    EXPECT_EQ(live.trip, "");
    expectSameFastPaths(fast, ref, live);
    EXPECT_GT(fast.handedOff, ref.schedulerDispatched);

    FastPaths scheduled_fast{1, 1};
    const Outcome scheduled = runLive(w, true, &scheduled_fast);
    EXPECT_EQ(scheduled_fast.handedOff, 0u);
    expectSameOutcome(scheduled, live);
}

/** A budget or stop case: the fast-path run, the all-scheduled run and
 *  the reference must end at the same point with the same dump. */
void
expectSameTrip(const ActorWorkload &w, const std::string &trip)
{
    SCOPED_TRACE("actors " + std::to_string(w.fibers) + "+" +
                 std::to_string(w.coroutines));
    FastPaths fast;
    const Outcome live = runLive(w, false, &fast);
    FastPaths scheduled_fast{1, 1};
    const Outcome scheduled = runLive(w, true, &scheduled_fast);
    RefActors ref(w);
    ref.run();
    EXPECT_EQ(live.trip, trip);
    expectSameOutcome(live, ref.outcome());
    expectSameOutcome(scheduled, live);
    expectSameFastPaths(fast, ref, live);
    EXPECT_EQ(scheduled_fast.inPlace, 0u);
    EXPECT_EQ(scheduled_fast.handedOff, 0u);
    if (w.stallAt == 0) {
        // The fast paths ran up to the trip; a lone fiber has nobody
        // to hand off to.
        EXPECT_GT(fast.inPlace, 0u);
        if (w.fibers > 1)
            EXPECT_GT(fast.handedOff, 0u);
        else
            EXPECT_EQ(fast.handedOff, 0u);
    } else {
        // An armed plan turns both off.
        EXPECT_EQ(fast.inPlace, 0u);
        EXPECT_EQ(fast.handedOff, 0u);
    }
    if (!trip.empty()) {
        EXPECT_FALSE(live.blocked.empty());
    }
    EXPECT_GT(live.dispatched, 100u); // Well into the run.
}

/** One fiber actor and nothing else: every delay after the first is
 *  strictly first, so the trip lands on a delay the queue would
 *  otherwise advance in place. */
ActorWorkload
alone(ActorWorkload w)
{
    w.fibers = 1;
    w.coroutines = 0;
    w.maxPlain = 0;
    return w;
}

TEST(EventQueueDiff, ActorEventBudgetTripsAtTheSamePoint)
{
    ActorWorkload w;
    w.seed = 0xB0D1;
    w.budget.maxEvents = 2500;
    expectSameTrip(w, "budget");
    w.budget.maxEvents = 250;
    expectSameTrip(alone(w), "budget");
}

TEST(EventQueueDiff, ActorStallLimitTripsAtTheSamePoint)
{
    // One actor spins on zero-tick delays, each strictly first, so the
    // clock stops while every dispatch is an in-place advance.  Alone,
    // the steps before the spin advance the clock in place too.
    ActorWorkload w;
    w.seed = 0x57A1;
    w.spinFrom = 100;
    w.budget.stallDispatchLimit = 50;
    expectSameTrip(w, "deadlock");
    w.spinFrom = 150;
    expectSameTrip(alone(w), "deadlock");
}

TEST(EventQueueDiff, ActorSimTimeBudgetTripsAtTheSamePoint)
{
    ActorWorkload w;
    w.seed = 0x51E7;
    w.budget.maxSimTime = 400'000;
    expectSameTrip(w, "sim-time");
    w.budget.maxSimTime = 3'000'000;
    expectSameTrip(alone(w), "sim-time");
}

TEST(EventQueueDiff, ActorRequestStopHaltsAtTheSamePoint)
{
    ActorWorkload w;
    w.seed = 0x5709;
    w.stopAt = 4321;
    expectSameTrip(w, "");
    w.stopAt = 150;
    expectSameTrip(alone(w), "");
}

TEST(EventQueueDiff, ActorStallFaultTripsAtTheSamePoint)
{
    // An armed StallQueue fault: the in-place advance stays off, and the
    // zero-delay chain it starts trips the stall limit.
    ActorWorkload w;
    w.seed = 0xFA17;
    w.stallAt = 3000;
    w.budget.stallDispatchLimit = 200;
    expectSameTrip(w, "deadlock");
}

TEST(EventQueueDiff, ActorWallClockSampleTripsAtTheSamePoint)
{
    // A wall-clock budget shorter than any 1024 dispatches: the sample
    // at dispatch 0 arms it and the one at 1024 trips.  Every 1024th
    // dispatch is a sampling slot the in-place advance leaves to the
    // scheduler, so the trip lands on exactly 1024 either way.
    ActorWorkload w;
    w.seed = 0x3A11;
    w.budget.maxWallSeconds = 1e-9;
    expectSameTrip(w, "budget");
    w.steps = 2000;
    expectSameTrip(alone(w), "budget");
}

TEST(EventQueueDiff, ActorRunUntilWindowsMatchReference)
{
    ActorWorkload w;
    w.seed = 0x7E11;
    w.maxSpawned = 20;
    LiveActors live(w);
    RefActors ref(w);
    constexpr Tick kStep = 2500;
    bool drained = false;
    for (Tick limit = kStep; !drained; limit += kStep) {
        drained = live.eq.runUntil(limit);
        EXPECT_EQ(ref.run(limit, /*enforce_sim_time=*/false), drained);
        ASSERT_EQ(live.eq.pending(), ref.queue.size());
        ASSERT_EQ(live.eq.now(), ref.now);
        ASSERT_EQ(live.eq.dispatched(), ref.dispatched);
        ASSERT_EQ(live.eq.advancedInPlace(), ref.selfNext);
        ASSERT_EQ(live.eq.handedOff(), ref.handOffs);
        if (!ref.queue.empty()) {
            ASSERT_EQ(live.eq.nextEventTime(), ref.queue.top().when);
        }
    }
    expectSameLogs(live.log, ref.log);
    EXPECT_GT(live.eq.advancedInPlace(), 0u);
    EXPECT_GT(live.eq.handedOff(), 0u);
}

TEST(EventQueueDiff, AdvanceInPlaceDeclinesOutsideADispatch)
{
    // Before run() (how trace replay starts its interpreters) and
    // between runUntil() windows nothing is dispatching, so a delay is
    // always scheduled; inside a dispatch a strictly-first one is not.
    sim::EventQueue eq;
    EXPECT_FALSE(eq.advanceInPlace(0));
    EXPECT_FALSE(eq.advanceInPlace(5));
    bool tie = true;
    bool inside = false;
    eq.schedule(10, [&] {
        eq.schedule(20, [] {});
        tie = eq.advanceInPlace(20); // Queued first: it goes first.
        inside = eq.advanceInPlace(15);
    });
    EXPECT_FALSE(eq.runUntil(5));
    EXPECT_FALSE(eq.advanceInPlace(7));
    eq.run();
    EXPECT_FALSE(tie);
    EXPECT_TRUE(inside);
    EXPECT_EQ(eq.advancedInPlace(), 1u);
    EXPECT_EQ(eq.dispatched(), 3u);
    EXPECT_EQ(eq.now(), 20u);

    // Past the active runUntil() limit: the loop would stop first.
    sim::EventQueue limited;
    bool beyond = true;
    limited.schedule(10, [&] { beyond = limited.advanceInPlace(15); });
    limited.runUntil(12);
    EXPECT_FALSE(beyond);
    EXPECT_EQ(limited.now(), 10u);
}

} // namespace
