/**
 * @file
 * Deterministic discrete-event engine.
 *
 * This is the CSIM substitute at the bottom of the simulator: events are
 * dispatched in (tick, sequence) order, so two events scheduled for the
 * same tick fire in scheduling order and every simulation run is
 * bit-for-bit reproducible.
 *
 * Internally the queue is built for the near-now tick distribution that
 * process-oriented simulation produces (almost every event lands within
 * a few microseconds of the clock):
 *
 *  - Events live in pooled EventNode slots with a fixed inline buffer
 *    for the callable (no std::function heap churn on the hot path);
 *    nodes come from an arena owned by the queue and are recycled onto
 *    a freelist as they dispatch.
 *  - A single-tick calendar tier — kBuckets circular one-tick buckets
 *    tracked by a two-level bitmap — holds the near-now events; each
 *    bucket is a FIFO list, which *is* (tick, seq) order because a
 *    bucket covers exactly one tick.
 *  - The window slides with the clock: each dispatch that advances
 *    the clock re-bases it to [now, now + kBuckets), so events a few
 *    microseconds ahead keep landing in buckets.
 *  - A sorted overflow tier (binary min-heap on (tick, seq)) holds
 *    far-future events; when the calendar drains, the window re-bases
 *    onto the earliest overflow event and pulls the next window's
 *    events across.  Overflow events the sliding window has reached
 *    wait there until then; dispatch merges the two tiers in
 *    (tick, seq) order.
 *  - The earliest pending node across both tiers is cached: schedule()
 *    compares against it, and a dispatch rescans once, after the pop.
 *    nextEventTime() — asked before every shared access by both the
 *    runtime and the trace replay — is a load, and run() never scans
 *    twice per event.
 *  - A delay whose wake-up would be the very next dispatch skips the
 *    queue: advanceInPlace() does in place what run() and dispatch()
 *    would do for that event (mark progress, move the clock, slide the
 *    window, count the dispatch), so the blocked process or coroutine
 *    just carries on.  It declines — and the caller schedules the
 *    wake-up as usual — whenever the event would not be next or its
 *    dispatch could trip a budget, so event counts, budget trips and
 *    their messages are the same either way.
 *  - A fiber process that blocks while the next dispatch resumes another
 *    started process takes that event itself: quietFront() recognises
 *    it (by its callable's type, so EventNode carries no tag) under the
 *    guard advanceInPlace() applies, and handOffFront() does its
 *    bookkeeping, after which the process switches straight into the
 *    other fiber (see Process).  One stack switch per such event
 *    instead of a yield and a resume.
 *
 * The engine also hosts the run watchdog: a RunBudget bounds events,
 * simulated time, wall-clock time and clock stalls, and every Process
 * registers itself so the watchdog can dump what each blocked process
 * waits on when a budget trips (see sim/watchdog.hh).
 */

#ifndef ABSIM_SIM_EVENT_QUEUE_HH
#define ABSIM_SIM_EVENT_QUEUE_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/types.hh"
#include "sim/watchdog.hh"

namespace absim::sim {

class Process;

/**
 * A deterministic discrete-event simulation engine.
 *
 * The engine owns the global simulated clock.  Client code (processes,
 * resources, networks) schedules callbacks at absolute ticks; run()
 * dispatches them in (tick, insertion) order until the queue drains.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    EventQueue();
    ~EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule a callable at absolute time @p when.
     *
     * Accepts any nullary callable.  Callables up to kInlineBytes are
     * stored inline in a pooled event node (the zero-allocation hot
     * path); larger ones fall back to a heap-backed std::function.
     *
     * @param when  Absolute tick; must be >= now().
     * @param fn    Callable invoked when the clock reaches @p when.
     */
    template <typename F>
    void
    schedule(Tick when, F &&fn)
    {
        checkSchedule(when);
        emplace(when, std::forward<F>(fn));
    }

    /** Schedule a callable @p delay ticks from now. */
    template <typename F>
    void
    scheduleAfter(Duration delay, F &&fn)
    {
        schedule(now_ + delay, std::forward<F>(fn));
    }

    /**
     * Run events until the queue is empty.
     * @throws BudgetExceededError / DeadlockError if the budget trips.
     */
    void run();

    /**
     * Run events until the clock would pass @p limit.
     *
     * Events at exactly @p limit still fire.
     * @return true if the queue drained, false if stopped at the limit.
     */
    bool runUntil(Tick limit);

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Tick of the earliest pending event, or kTickMax if none. */
    Tick
    nextEventTime() const
    {
        return front_ == nullptr ? kTickMax : front_->when;
    }

    /** Number of pending events. */
    std::size_t pending() const { return size_; }

    /** Total number of events dispatched so far (simulation-cost metric). */
    std::uint64_t dispatched() const { return dispatched_; }

    /** How many of dispatched() were advanced in place (no queue trip). */
    std::uint64_t advancedInPlace() const { return advancedInPlace_; }

    /** How many of dispatched() were taken by a fiber hand-off
     *  (handOffFront()) rather than invoked by run(). */
    std::uint64_t handedOff() const { return handedOff_; }

    /**
     * Dispatch a wake-up at @p when without queueing it, if run() would
     * dispatch it next anyway: mark progress, set now() to @p when,
     * slide the window and count the dispatch, exactly as run() and
     * dispatch() would.  The caller then continues in place of the
     * event's callback, so it must do nothing that callback would not.
     *
     * @return false, with nothing changed, unless a run()/runUntil()
     *         dispatch is in progress, no stop is requested, no fault
     *         plan is armed, @p when is in [now(), limit] and strictly
     *         before every pending event (a same-tick event was queued
     *         first), and the dispatch could not trip maxEvents, the
     *         stall limit, the wall-clock sample or maxSimTime.  The
     *         caller then schedules the event, and the scheduler
     *         raises whatever trips, off the caller's stack.
     */
    bool advanceInPlace(Tick when);

    /**
     * The callable of the event run() dispatches next, if it is an @p F
     * and the dispatch passes advanceInPlace()'s guard (a dispatch in
     * progress, no stop, no armed fault plan, within the loop's limit,
     * nothing that could trip a budget); nullptr otherwise.  The caller
     * may then take the event with handOffFront() and run in place of
     * its callable.  @p F must be a type schedule() stores inline.
     */
    template <typename F>
    const F *
    quietFront() const
    {
        static_assert(sizeof(F) <= kInlineBytes &&
                      alignof(F) <= alignof(std::max_align_t));
        if (front_ == nullptr || front_->invoke != &invokeAs<F> ||
            !quietDispatch(front_->when))
            return nullptr;
        return std::launder(
            reinterpret_cast<const F *>(front_->storage));
    }

    /**
     * Dispatch the front event without invoking it: mark progress, pop,
     * move the clock and count the dispatch as run() and dispatch()
     * would, then recycle the node and count it in handedOff().
     * Precondition: quietFront() just returned non-null.
     */
    void handOffFront();

    /**
     * Install a run budget; run()/runUntil() raise BudgetExceededError
     * or DeadlockError (stall limit) once a limit trips.  The wall
     * clock starts at the first dispatch after the budget is set.
     */
    void setBudget(const RunBudget &budget);

    const RunBudget &budget() const { return budget_; }

    /**
     * Stop dispatching at the next event boundary; run()/runUntil()
     * return with the queue still populated.  Used by the runtime when
     * a worker dies mid-run: its peers would otherwise spin in
     * simulated time until a budget trips (or forever, with no budget
     * armed).  Sticky for the lifetime of the engine.
     */
    void requestStop() { stopRequested_ = true; }

    bool stopRequested() const { return stopRequested_; }

    /** @name Process registry (used by sim::Process).
     *
     * Every live Process registers itself so the watchdog can report
     * which processes are blocked, and on what, when a run wedges.
     */
    /// @{
    void registerProcess(Process *p) { processes_.push_back(p); }
    void unregisterProcess(Process *p);
    /// @}

    /**
     * Diagnostic snapshot of every registered, unfinished process: its
     * name, scheduling state and the wait reason recorded at the
     * blocking site.
     */
    std::vector<BlockedProcessInfo> blockedProcesses() const;

    /** Inline callable capacity of a pooled event node. */
    static constexpr std::size_t kInlineBytes = 64;

  private:
    /** Calendar width: one-tick buckets spanning a kBuckets-tick
     *  window.  Power of two so the bucket index is a mask. */
    static constexpr std::size_t kBuckets = 4096;
    static constexpr std::size_t kBucketWords = kBuckets / 64;
    static constexpr std::size_t kNodesPerBlock = 256;

    /**
     * One pooled event: intrusive FIFO link + type-erased callable in
     * a fixed inline buffer.  invoke/destroy are plain function
     * pointers (no std::function dispatch on the hot path).
     */
    struct EventNode
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        EventNode *next = nullptr;
        void (*invoke)(void *) = nullptr;
        void (*destroy)(void *) = nullptr; ///< Null: trivially destructible.
        alignas(std::max_align_t) unsigned char storage[kInlineBytes];
    };

    /** A one-tick calendar bucket: FIFO list == (tick, seq) order. */
    struct Bucket
    {
        EventNode *head = nullptr;
        EventNode *tail = nullptr;
    };

    template <typename D>
    static void
    invokeAs(void *p)
    {
        (*static_cast<D *>(p))();
    }

    template <typename D>
    static void
    destroyAs(void *p)
    {
        static_cast<D *>(p)->~D();
    }

    /** Causality validation half of schedule() (out of line: needs the
     *  check machinery, which this header must not drag in). */
    void checkSchedule(Tick when) const;

    /** Construct the callable into a pooled node and enqueue it. */
    template <typename F>
    void
    emplace(Tick when, F &&fn)
    {
        using D = std::decay_t<F>;
        EventNode *node = acquireNode();
        if constexpr (sizeof(D) <= kInlineBytes &&
                      alignof(D) <= alignof(std::max_align_t)) {
            try {
                ::new (static_cast<void *>(node->storage))
                    D(std::forward<F>(fn));
            } catch (...) {
                releaseNode(node);
                throw;
            }
            node->invoke = &invokeAs<D>;
            node->destroy = std::is_trivially_destructible_v<D>
                                ? nullptr
                                : &destroyAs<D>;
        } else {
            // Oversized capture: box it in a std::function (heap), the
            // exact cost every schedule used to pay.
            static_assert(sizeof(Callback) <= kInlineBytes);
            try {
                ::new (static_cast<void *>(node->storage))
                    Callback(std::forward<F>(fn));
            } catch (...) {
                releaseNode(node);
                throw;
            }
            node->invoke = &invokeAs<Callback>;
            node->destroy = &destroyAs<Callback>;
        }
        node->when = when;
        node->seq = nextSeq_++;
        enqueueNode(node);
    }

    EventNode *acquireNode();
    void releaseNode(EventNode *node); ///< Callable already destroyed.
    void destroyNode(EventNode *node); ///< Destroy callable + release.

    /** Route a filled node into the calendar or the overflow tier. */
    void enqueueNode(EventNode *node);
    void pushBucket(EventNode *node);
    void pushOverflow(EventNode *node);
    EventNode *popOverflowTop();

    /**
     * Re-base the calendar window onto the earliest overflow event and
     * pull everything inside the new window across.  Precondition: the
     * calendar tier is empty and the overflow tier is not.
     */
    void advanceWindow();

    /** Earliest bucketed node, or nullptr if the calendar is empty. */
    EventNode *calendarFront() const;

    /** Recompute front_ from both tiers (the one scan per dispatch). */
    void refreshFront();

    /**
     * Detach and return front_, the earliest pending event ((when, seq)
     * order across both tiers), re-basing the window as needed.
     * Precondition: the queue is not empty.
     */
    EventNode *popFront();

    /** Dispatch @p node: advance the clock, invoke, recycle. */
    void dispatch(EventNode *node);

    /** The bookkeeping of one dispatch at @p when: mark progress, move
     *  the clock, count it. */
    void countDispatch(Tick when);

    /** The guard shared by advanceInPlace() and quietFront(): would
     *  run()'s next dispatch, at @p when, pass every check untouched? */
    bool quietDispatch(Tick when) const;

    /** Set the clock to @p when and slide the calendar with it. */
    void advanceClock(Tick when);

    /** The dispatch loop shared by run() (limit kTickMax, simulated-time
     *  budget enforced) and runUntil(). */
    bool runLoop(Tick limit, bool enforce_sim_time);

    /** Throw if the budget (events / wall clock / stall) has tripped. */
    void enforceBudget();

    /** One link of the StallQueue fault-injection chain. */
    void stallStep();

    /** @name Two-level occupancy bitmap over the calendar buckets. */
    /// @{
    void markBucket(std::size_t idx);
    void clearBucket(std::size_t idx);
    /** First occupied bucket in circular order from @p start. */
    std::size_t firstBucketFrom(std::size_t start) const;
    /// @}

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t dispatched_ = 0;
    std::uint64_t advancedInPlace_ = 0;
    std::uint64_t handedOff_ = 0;
    std::size_t size_ = 0;

    /** True while run()/runUntil() dispatches; runLimit_ is the tick
     *  the active loop stops after. */
    bool running_ = false;
    Tick runLimit_ = 0;

    /** Calendar tier: buckets cover [windowBase_, windowLimit_); the
     *  base follows the clock forward (dispatch) and jumps to the
     *  overflow front when the calendar drains (advanceWindow). */
    std::unique_ptr<Bucket[]> buckets_;
    std::uint64_t summary_ = 0; ///< Which bitmap words are non-zero.
    std::unique_ptr<std::uint64_t[]> words_;
    Tick windowBase_ = 0;
    Tick windowLimit_ = kBuckets;
    std::size_t calendarCount_ = 0;

    /** Overflow tier: (when, seq) min-heap of far-future (and, with
     *  causality checks off, past) events. */
    std::vector<EventNode *> overflow_;

    /** Earliest pending node of either tier; nullptr iff empty. */
    EventNode *front_ = nullptr;

    /** Node pool: arena blocks + freelist threaded through next. */
    std::vector<std::unique_ptr<EventNode[]>> blocks_;
    EventNode *freeList_ = nullptr;

    RunBudget budget_;
    bool stopRequested_ = false;
    /** dispatched() value at the last simulated-clock advance. */
    std::uint64_t lastProgressDispatch_ = 0;
    bool wallArmed_ = false;
    std::chrono::steady_clock::time_point wallDeadline_;

    std::vector<Process *> processes_;
};

} // namespace absim::sim

#endif // ABSIM_SIM_EVENT_QUEUE_HH
