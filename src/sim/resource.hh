/**
 * @file
 * Blocking resources in simulated time: a FIFO mutex and a countdown
 * latch.  These are *simulator* primitives (used by the network
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

#include "check/check.hh"
#include "sim/process.hh"
#include "sim/types.hh"

namespace absim::sim {

/** One blocked party: a fiber process, or a coroutine that its engine
 *  resumes.  A FifoMutex queues waiters in place: the node lives in the
 *  waiting party's own frame, and @c next links it into the queue. */
struct Waiter
{
    Process *process = nullptr;
    std::coroutine_handle<> handle;
    EventQueue *eq = nullptr;
    Waiter *next = nullptr;

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
 *
 * The wait queue is intrusive: each waiter's node is a local of acquire()
 * on the fiber's stack, or a member of the Acquire awaiter in the
 * coroutine's frame, and stays put until release() unlinks it.  So a
 * mutex owns no memory, and constructing one allocates nothing.
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
    std::size_t waiters() const { return count_; }

    /** Cumulative ticks all acquirers have spent waiting. */
    Duration totalWait() const { return totalWait_; }

  private:
    /** Take the mutex if it is free and nobody is queued. */
    bool
    tryTake()
    {
        if (locked_ || head_ != nullptr)
            return false;
        locked_ = true;
        return true;
    }

    /** Queue @p w last; it must stay put until release() unlinks it. */
    void
    enqueue(Waiter &w)
    {
        w.next = nullptr;
        if (tail_ != nullptr)
            tail_->next = &w;
        else
            head_ = &w;
        tail_ = &w;
        ++count_;
    }

    Waiter *head_ = nullptr;
    Waiter *tail_ = nullptr;
    Duration totalWait_ = 0;
    std::uint32_t count_ = 0;
    bool locked_ = false;
};

/** The awaiter of FifoMutex::lock.  Its queue node is a member, so it
 *  can be neither copied nor moved. */
class [[nodiscard]] FifoMutex::Acquire
{
  public:
    Acquire(FifoMutex &m, EventQueue &eq) : m_(m), eq_(eq) {}
    Acquire(const Acquire &) = delete;
    Acquire &operator=(const Acquire &) = delete;

    bool
    await_ready()
    {
        if (Process::current() != nullptr) {
            waited_ = m_.acquire();
            return true;
        }
        return m_.tryTake();
    }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        began_ = eq_.now();
        node_.handle = h;
        node_.eq = &eq_;
        m_.enqueue(node_);
    }

    Duration
    await_resume()
    {
        // Woken by release(): the mutex was handed to us directly.
        if (node_.handle) {
            waited_ = eq_.now() - began_;
            m_.totalWait_ += waited_;
        }
        return waited_;
    }

  private:
    FifoMutex &m_;
    EventQueue &eq_;
    Waiter node_;
    Tick began_ = 0;
    Duration waited_ = 0;
};

inline FifoMutex::Acquire
FifoMutex::lock(EventQueue &eq)
{
    return Acquire{*this, eq};
}

/**
 * Countdown latch: await() blocks until the internal count reaches zero.
 * Used to rendezvous with detached helpers, such as the coroutines
 * sim::spawn starts (e.g. a write miss waiting for all its parallel
 * invalidations to be acknowledged).
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
