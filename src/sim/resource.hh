/**
 * @file
 * Blocking resources in simulated time: a FIFO mutex, a condition, and a
 * countdown latch.  These are *simulator* primitives (used by the network
 * and coherence protocol); application-level synchronization (spin locks,
 * barriers) is built on simulated shared memory in src/runtime instead, so
 * that its cost is visible to the machine models exactly as the paper
 * requires.
 *
 * The mutex and the latch serve both drivers (see sim/task.hh): their
 * awaitables (FifoMutex::lock, Latch::wait) block a fiber caller through
 * the fiber API and suspend any other coroutine, and a hand-off wakes
 * either kind of waiter with the same single engine event.
 */

#ifndef ABSIM_SIM_RESOURCE_HH
#define ABSIM_SIM_RESOURCE_HH

#include <coroutine>
#include <cstdint>
#include <deque>

#include "check/check.hh"
#include "sim/process.hh"
#include "sim/types.hh"

namespace absim::sim {

/** One blocked party: a fiber process, or a coroutine that its engine
 *  resumes. */
struct Waiter
{
    Process *process = nullptr;
    std::coroutine_handle<> handle;
    EventQueue *eq = nullptr;

    explicit operator bool() const { return process != nullptr || handle; }

    /** Resume the waiter at the current engine time: one event, the
     *  same for both kinds (Process::wake schedules one too). */
    void wake() const;
};

/**
 * A mutex with strict FIFO grant order in simulated time.
 *
 * acquire() blocks the calling process until the mutex is free and every
 * earlier requester has been served.  The return value reports how long the
 * caller waited, which the network uses as its contention measure.
 */
class FifoMutex
{
  public:
    class Acquire;

    FifoMutex() = default;
    FifoMutex(const FifoMutex &) = delete;
    FifoMutex &operator=(const FifoMutex &) = delete;

    /**
     * Acquire the mutex, blocking the calling process in simulated time.
     * @return Ticks spent waiting (0 if the mutex was free).
     */
    Duration acquire();

    /** co_await lock(eq) -> Duration: acquire() for a fiber caller, else
     *  a coroutine wait in the same FIFO. */
    Acquire lock(EventQueue &eq);

    /** Release the mutex, waking the next waiter if any. */
    void release();

    bool locked() const { return locked_; }
    std::size_t waiters() const { return waiters_.size(); }

    /** Cumulative ticks all acquirers have spent waiting. */
    Duration totalWait() const { return totalWait_; }

  private:
    bool locked_ = false;
    std::deque<Waiter> waiters_;
    Duration totalWait_ = 0;
};

class [[nodiscard]] FifoMutex::Acquire
{
  public:
    Acquire(FifoMutex &m, EventQueue &eq) : m_(m), eq_(eq) {}

    bool
    await_ready()
    {
        if (Process::current() != nullptr) {
            waited_ = m_.acquire();
            return true;
        }
        if (!m_.locked_ && m_.waiters_.empty()) {
            m_.locked_ = true;
            return true;
        }
        return false;
    }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        began_ = eq_.now();
        suspended_ = true;
        m_.waiters_.push_back(Waiter{nullptr, h, &eq_});
    }

    Duration
    await_resume()
    {
        // Woken by release(): the mutex was handed to us directly.
        if (suspended_) {
            waited_ = eq_.now() - began_;
            m_.totalWait_ += waited_;
        }
        return waited_;
    }

  private:
    FifoMutex &m_;
    EventQueue &eq_;
    Tick began_ = 0;
    Duration waited_ = 0;
    bool suspended_ = false;
};

inline FifoMutex::Acquire
FifoMutex::lock(EventQueue &eq)
{
    return Acquire{*this, eq};
}

/**
 * A broadcast condition: processes block on wait() until someone calls
 * notifyAll().  There is no predicate; callers re-check their own state.
 */
class Condition
{
  public:
    /** Block the calling process until the next notifyAll(). */
    void wait();

    /** Wake every currently blocked process. */
    void notifyAll();

    std::size_t waiters() const { return waiters_.size(); }

  private:
    std::deque<Process *> waiters_;
};

/**
 * Countdown latch: await() blocks until the internal count reaches zero.
 * Used to rendezvous with detached helper processes (e.g. a write miss
 * waiting for all its parallel invalidations to be acknowledged).
 */
class Latch
{
  public:
    class Wait;

    explicit Latch(std::uint32_t count) : count_(count) {}

    /** Decrement; wakes the waiter when the count hits zero. */
    void countDown();

    /** Block the calling process until the count is zero. */
    void await();

    /** co_await wait(eq): await() for a fiber caller, else a coroutine
     *  wait. */
    Wait wait(EventQueue &eq);

  private:
    std::uint32_t count_;
    Waiter waiter_;
};

class [[nodiscard]] Latch::Wait
{
  public:
    Wait(Latch &latch, EventQueue &eq) : latch_(latch), eq_(eq) {}

    bool
    await_ready()
    {
        if (Process::current() != nullptr) {
            latch_.await();
            return true;
        }
        return latch_.count_ == 0;
    }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        ABSIM_CHECK(!latch_.waiter_, "Latch supports a single waiter");
        latch_.waiter_ = Waiter{nullptr, h, &eq_};
    }

    void await_resume() const noexcept {}

  private:
    Latch &latch_;
    EventQueue &eq_;
};

inline Latch::Wait
Latch::wait(EventQueue &eq)
{
    return Wait{*this, eq};
}

} // namespace absim::sim

#endif // ABSIM_SIM_RESOURCE_HH
