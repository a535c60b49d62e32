/**
 * @file
 * Simulated processes: fibers driven by the discrete-event engine.
 *
 * A Process couples a Fiber with an EventQueue so that code running inside
 * the fiber can block in simulated time (delay, suspend) and be woken by
 * events.  This is the process-oriented simulation primitive that CSIM
 * provided to SPASM.
 *
 * A process that blocks while run()'s next dispatch is another started
 * process's resume event takes that event itself (EventQueue::quietFront
 * and handOffFront) and switches straight into the other fiber
 * (Fiber::handOff): one stack switch per event instead of a yield to the
 * scheduler and a resume out of it.  Dispatch order, dispatched(),
 * budget trips and their messages are the same either way; everything
 * that could trip, and every first entry, stays with the scheduler, and
 * a finishing fiber always returns there, where onFinish may delete its
 * process.
 */

#ifndef ABSIM_SIM_PROCESS_HH
#define ABSIM_SIM_PROCESS_HH

#include <functional>
#include <memory>
#include <string>

#include "sim/event_queue.hh"
#include "sim/fiber.hh"
#include "sim/types.hh"

namespace absim::sim {

/**
 * Scheduling state of a Process, tracked for watchdog diagnostics:
 * when a run deadlocks, the blocked-process dump reports each
 * process's state and the wait reason recorded at the blocking site.
 */
enum class ProcState : std::uint8_t
{
    Created,   ///< Constructed, never started.
    Runnable,  ///< A resume event is scheduled.
    Running,   ///< Currently executing on its fiber.
    Delayed,   ///< Blocked until a known tick (delayUntil()).
    Suspended, ///< Blocked until wake(); see waitReason().
    Finished,  ///< Entry function returned.
};

std::string toString(ProcState state);

/**
 * What a suspended process waits on, formatted lazily.
 *
 * Suspends are the hottest blocking path in the simulator (every mutex
 * acquire, latch await and message receive goes through one), but the
 * reason text is only ever read by the watchdog's blocked-process dump
 * when a run wedges.  So the reason is carried as a string literal
 * plus up to two named numeric arguments, and the string is built only
 * in str() — a suspend never allocates for diagnostics it will almost
 * never print.
 */
class WaitReason
{
  public:
    constexpr WaitReason() = default;

    /** Plain reason: str() is @p what verbatim. */
    constexpr WaitReason(const char *what) : what_(what) {}

    /** One argument: str() is "what (key=value)". */
    constexpr WaitReason(const char *what, const char *key,
                         std::uint64_t value)
        : what_(what), key0_(key), value0_(value)
    {
    }

    /** Two arguments: str() is "what (key0=value0 key1=value1)". */
    constexpr WaitReason(const char *what, const char *key0,
                         std::uint64_t value0, const char *key1,
                         std::uint64_t value1)
        : what_(what), key0_(key0), value0_(value0), key1_(key1),
          value1_(value1)
    {
    }

    bool empty() const { return what_[0] == '\0'; }

    /** Render the reason (the only place that allocates). */
    std::string str() const;

  private:
    const char *what_ = "";
    const char *key0_ = nullptr;
    std::uint64_t value0_ = 0;
    const char *key1_ = nullptr;
    std::uint64_t value1_ = 0;
};

namespace detail {
/** The process running on this thread (inline: every awaitable sim
 *  primitive asks, see sim/task.hh). */
inline thread_local constinit Process *tl_current_process = nullptr;
} // namespace detail

/**
 * A simulated process.
 *
 * The entry function runs on a private fiber.  Inside it, the process may
 * call delay()/delayUntil() to advance simulated time, or suspend() to
 * block until another party calls wake().
 */
class Process
{
  public:
    /**
     * Create a process.
     *
     * @param eq     Engine that drives this process.
     * @param name   Debug name.
     * @param entry  Body of the process; runs on the private fiber.
     */
    Process(EventQueue &eq, std::string name, std::function<void()> entry);
    ~Process();

    Process(const Process &) = delete;
    Process &operator=(const Process &) = delete;

    /** Schedule the first activation of the process at tick @p when. */
    void start(Tick when = 0);

    /**
     * Block the calling process until the engine clock reaches @p when.
     * Must be called from inside this process's fiber.
     */
    void delayUntil(Tick when);

    /** Block the calling process for @p d ticks. */
    void delay(Duration d) { delayUntil(eq_.now() + d); }

    /**
     * Block until wake() is called.  Must be called from inside this
     * process's fiber.
     *
     * @param reason  What the process waits on (e.g. "fifo-mutex
     *                acquire"); surfaced by the deadlock watchdog's
     *                blocked-process dump.
     */
    void suspend(WaitReason reason = {});

    /**
     * Wake a suspended process; it resumes at the current engine time.
     * Must be called from the scheduler context or another fiber (the
     * wake-up is delivered through the event queue either way).
     */
    void wake();

    /** The process currently running on this thread, if any. */
    static Process *current() { return detail::tl_current_process; }

    /**
     * Install a hook invoked from the scheduler context right after the
     * process's entry function returns.  The hook may delete the process
     * (this is how detached helpers clean themselves up).
     */
    void setOnFinish(std::function<void(Process *)> f)
    {
        onFinish_ = std::move(f);
    }

    const std::string &name() const { return name_; }
    bool finished() const { return fiber_.finished(); }
    EventQueue &engine() { return eq_; }

    /** @name Watchdog diagnostics. */
    /// @{
    ProcState state() const { return state_; }

    /** What the process waits on while Suspended ("" if unset). */
    std::string waitReason() const { return waitReason_.str(); }

    /** Wake-up tick while Delayed. */
    Tick delayedUntil() const { return delayedUntil_; }
    /// @}

  private:
    /**
     * A resume event's callable.  A named type, so a blocking process
     * can recognise another process's resume event at the front of the
     * queue (EventQueue::quietFront) and hand off to it.
     */
    struct Resume
    {
        Process *proc;
        void operator()() const { proc->resumeFromScheduler(); }
    };

    void scheduleResume(Tick when);

    /** The scheduler dispatched our resume event: enter the fiber, and
     *  finish whichever process's fiber comes back finished. */
    void resumeFromScheduler();

    /** Give up the CPU until resumed: hand off to the process the next
     *  dispatch resumes, or yield to the scheduler. */
    void block();

    EventQueue &eq_;
    std::string name_;
    Fiber fiber_;
    bool suspended_ = false;
    ProcState state_ = ProcState::Created;
    WaitReason waitReason_;
    Tick delayedUntil_ = 0;
    std::function<void(Process *)> onFinish_;
};

/**
 * Spawn a detached helper process that deletes itself on completion.
 *
 * Used for concurrent activities with no owner that must outlive the
 * spawning call frame (e.g. parallel invalidation messages).  The caller
 * can rendezvous with helpers via a Latch.
 *
 * @return A non-owning pointer, valid until the entry function returns.
 */
Process *spawnDetached(EventQueue &eq, std::string name,
                       std::function<void()> entry, Tick when);

} // namespace absim::sim

#endif // ABSIM_SIM_PROCESS_HH
