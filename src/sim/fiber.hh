/**
 * @file
 * Minimal cooperative fibers.
 *
 * Each simulated process runs on its own fiber so that application code can
 * make *blocking* calls into the memory system and network (the CSIM
 * process-oriented style the paper's SPASM simulator is built on).  The
 * scheduler (the engine's own stack) enters a fiber with resume(); the
 * fiber leaves with yield(), back to the scheduler, or with handOff(),
 * straight into another suspended fiber.  A fiber reached by hand-off
 * inherits the scheduler link of the fiber that handed off, so whichever
 * fiber of such a chain next yields or finishes returns into the one
 * resume() call that entered the chain.  A fiber's first entry is always
 * a resume(), and a finishing fiber always returns to the scheduler.
 *
 * On x86-64 the switch is a hand-rolled save/restore of the callee-saved
 * register set (see absimFiberSwitch in fiber.cc): swapcontext() makes two
 * sigprocmask() system calls per switch, which dominated the cost of the
 * millions of switches a detailed-machine sweep performs.  Other
 * architectures, and builds configured with ABSIM_FIBER_BACKEND=ucontext,
 * take the portable ucontext path.
 */

#ifndef ABSIM_SIM_FIBER_HH
#define ABSIM_SIM_FIBER_HH

#if defined(__x86_64__) && !defined(ABSIM_FIBER_UCONTEXT)
#define ABSIM_FIBER_RAW_SWITCH 1
#else
#define ABSIM_FIBER_RAW_SWITCH 0
#include <ucontext.h>
#endif

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace absim::sim {

/**
 * A bounded pool of recycled fiber stacks with reuse accounting.
 *
 * Simulations spawn thousands of short-lived helper processes (e.g.
 * parallel invalidations), and repeated runs in a sweep each spawn a
 * full machine's worth of workers; allocating + faulting a fresh stack
 * every time dominates simulation cost.  The pool lives per thread and
 * deliberately *outlives* individual runs — persistence across the
 * runs of a sweep is what turns stack allocation into reuse (see
 * core::RunContext, which snapshots the counters per run).
 *
 * Only default-sized stacks are pooled; odd sizes are one-offs.
 */
class FiberStackPool
{
  public:
    /** Only stacks of exactly this size are pooled (the Fiber default). */
    static constexpr std::size_t kPooledStackBytes = 512 * 1024;

    /** Upper bound on retained stacks (64 MiB of 512 KiB stacks). */
    static constexpr std::size_t kMaxPooled = 128;

    /** The executing thread's persistent pool. */
    static FiberStackPool &forThisThread();

    /** Unpoisons every retained stack before the memory is freed (the
     *  pool dies with its thread; see the implementation note). */
    ~FiberStackPool();

    /** A recycled stack when one fits, else a fresh allocation. */
    std::unique_ptr<unsigned char[]> acquire(std::size_t bytes);

    /** Return a stack; kept only if pool-sized and under the cap. */
    void recycle(std::unique_ptr<unsigned char[]> stack,
                 std::size_t bytes);

    /** @name Lifetime counters (monotone; snapshot to get per-run deltas). */
    /// @{
    std::uint64_t allocated() const { return allocated_; }
    std::uint64_t reused() const { return reused_; }
    /// @}

    /** Stacks currently held for reuse. */
    std::size_t pooled() const { return pool_.size(); }

  private:
    std::vector<std::unique_ptr<unsigned char[]>> pool_;
    std::uint64_t allocated_ = 0;
    std::uint64_t reused_ = 0;
};

/**
 * A single cooperative fiber with its own stack.
 *
 * The fiber starts executing its entry function on the first resume() and
 * must eventually return from it; after that it is finished() and may not
 * be resumed again.  Inside the entry function, Fiber::yield() suspends
 * the fiber and returns control to whoever called resume(), and
 * Fiber::handOff() suspends it and switches into another started fiber.
 */
class Fiber
{
  public:
    /** Default stack size: generous, since application code runs here. */
    static constexpr std::size_t kDefaultStackBytes =
        FiberStackPool::kPooledStackBytes;

    explicit Fiber(std::function<void()> entry,
                   std::size_t stack_bytes = kDefaultStackBytes);
    ~Fiber();

    Fiber(const Fiber &) = delete;
    Fiber &operator=(const Fiber &) = delete;

    /**
     * Switch from the calling context into this fiber.  Returns when the
     * fiber, or a fiber it handed off to, yields or finishes; the stack
     * canary checked on return is that fiber's.  Must not be called from
     * inside any fiber other than the scheduler context.
     */
    void resume();

    /**
     * Suspend the currently running fiber, returning control to the
     * context that called resume().  Must be called from inside a fiber.
     */
    static void yield();

    /**
     * Suspend the currently running fiber and switch straight into
     * @p next, one stack switch instead of a yield and a resume.  @p next
     * must be started, unfinished and not the caller; it inherits the
     * caller's link to the scheduler (saved stack pointer or context,
     * ASan bounds of the scheduler stack, TSan return fiber), so its next
     * yield or finish returns into the resume() that entered the caller.
     */
    static void handOff(Fiber &next);

    /** The fiber currently executing, or nullptr if in the scheduler. */
    static Fiber *current();

    /** True once the first resume() has entered the fiber. */
    bool started() const { return started_; }

    /** True once the entry function has returned. */
    bool finished() const { return finished_; }

    /**
     * Clobber the stack-overflow canary, simulating an overflow without
     * undefined behaviour.  Test-only: the next canary check fires.
     */
    void corruptStackCanaryForTest();

  private:
    static void trampoline();

    /** Verify the canary word at the overflow end of the stack. */
    void checkCanary() const;

    /** Prepare the suspended context for the first switch in. */
    void initContext();

    /** Fiber side of the switch: save here, reenter the scheduler. */
    void switchToScheduler();

    /**
     * First action after a yield or hand-off switches back in: complete
     * the ASan switch and, when the scheduler resumed us, learn its
     * stack's bounds for the way back.
     */
    void arrive(void *fake_stack);

    /**
     * Everything a running fiber needs to return to the scheduler.
     * resume() fills it; handOff() copies it into the next fiber.
     */
    struct SchedulerLink
    {
#if ABSIM_FIBER_RAW_SWITCH
        void *sp = nullptr; ///< Scheduler's saved stack pointer.
#else
        /** Scheduler's saved context (a local of the resume() frame the
         *  chain returns into). */
        ucontext_t *context = nullptr;
#endif
        /** Bounds of the scheduler stack, from the ASan annotations;
         *  resume() clears them and the fiber captures them on arrival.
         *  Unused (but cheap) when ASan is off. */
        const void *asanBottom = nullptr;
        std::size_t asanSize = 0;
        /** TSan's fiber object for the scheduler; null when TSan is
         *  off. */
        void *tsanFiber = nullptr;
    };

    std::function<void()> entry_;
    std::size_t stackBytes_;
    std::unique_ptr<unsigned char[]> stack_;
#if ABSIM_FIBER_RAW_SWITCH
    /**
     * With the raw switch, all callee-saved state lives on the owning
     * stack; a suspended context is nothing but its stack pointer.
     */
    void *fiberSp_ = nullptr; ///< Fiber's sp while suspended.
#else
    ucontext_t context_;
#endif
    SchedulerLink link_;
    bool started_ = false;
    bool finished_ = false;

    /** TSan's fiber object for this fiber; null when TSan is off. */
    void *tsanFiber_ = nullptr;
};

} // namespace absim::sim

#endif // ABSIM_SIM_FIBER_HH
