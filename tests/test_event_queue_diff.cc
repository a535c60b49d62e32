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
 */

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "check/check.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

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

    EventQueue eq;
    std::vector<LogEntry> log;
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
    std::priority_queue<Event, std::vector<Event>, Later> queue;
    std::vector<LogEntry> log;
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
        if (!ref.queue.empty())
            ASSERT_EQ(real.eq.nextEventTime(), ref.queue.top().when);
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
        if (!ref.queue.empty())
            ASSERT_EQ(eq.nextEventTime(), ref.queue.top().when);
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

} // namespace
