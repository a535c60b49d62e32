/**
 * @file
 * Coroutine tasks on the event kernel: the one shape the machine models
 * are written in, whichever driver runs them.
 *
 * A model operation that may block in simulated time (a network
 * transfer, a coherence transaction) is a Task coroutine, and every
 * blocking point inside it is an awaitable sim primitive (Delay here,
 * FifoMutex::lock and Latch::wait in sim/resource.hh).  Each primitive
 * looks at its caller:
 *
 *  - a fiber sim::Process (execution-driven simulation): it blocks that
 *    fiber in place, exactly as the fiber API does (delayUntil,
 *    FifoMutex::acquire, Latch::await), and the coroutine never
 *    suspends — a task run from a fiber has completed by the time the
 *    call that created it returns;
 *  - anything else (trace replay, whose interpreter is itself a
 *    coroutine resumed by the EventQueue): it suspends the coroutine
 *    and schedules its resumption on the same EventQueue.
 *
 * Either way a blocking point costs the same one dispatch (scheduled,
 * or advanced in place when it would be the next one), so both drivers
 * produce the same event schedule from the same code.
 *
 * Task frames churn at cache-miss rate, so they come from a per-thread
 * segregated freelist (FramePool) instead of the general heap.
 */

#ifndef ABSIM_SIM_TASK_HH
#define ABSIM_SIM_TASK_HH

#include <coroutine>
#include <cstddef>
#include <exception>
#include <new>
#include <type_traits>
#include <utility>

#include "check/check.hh"
#include "sim/event_queue.hh"
#include "sim/process.hh"
#include "sim/types.hh"

namespace absim::sim {

template <typename T = void>
class Task;

namespace detail {

/**
 * Per-thread segregated freelist for coroutine frames.  Sizes are
 * rounded to 64-byte granules so a frame returns to the bucket it came
 * from via the sized operator delete; a free frame's first word links
 * it into its bucket's list.
 */
class FramePool
{
  public:
    static constexpr std::size_t kGranule = 64;
    static constexpr std::size_t kBuckets = 64;  ///< Up to 4 KB pooled.
    static constexpr std::size_t kMaxFree = 256; ///< Per bucket.

    FramePool() = default;
    FramePool(const FramePool &) = delete;
    FramePool &operator=(const FramePool &) = delete;

    ~FramePool()
    {
        for (Bucket &bucket : buckets_)
            while (bucket.head != nullptr)
                ::operator delete(std::exchange(bucket.head,
                                                bucket.head->next));
    }

    void *
    alloc(std::size_t size)
    {
        const std::size_t b = bucketOf(size);
        if (b < kBuckets && buckets_[b].head != nullptr) {
            Bucket &bucket = buckets_[b];
            --bucket.count;
            return std::exchange(bucket.head, bucket.head->next);
        }
        return ::operator new(b * kGranule);
    }

    void
    release(void *p, std::size_t size)
    {
        const std::size_t b = bucketOf(size);
        if (b < kBuckets && buckets_[b].count < kMaxFree) {
            Bucket &bucket = buckets_[b];
            bucket.head = ::new (p) Free{bucket.head};
            ++bucket.count;
            return;
        }
        ::operator delete(p);
    }

    static FramePool &
    forThisThread()
    {
        thread_local FramePool pool;
        return pool;
    }

  private:
    struct Free
    {
        Free *next;
    };

    struct Bucket
    {
        Free *head = nullptr;
        std::size_t count = 0;
    };

    static std::size_t
    bucketOf(std::size_t size)
    {
        return (size + kGranule - 1) / kGranule;
    }

    Bucket buckets_[kBuckets];
};

struct PromiseBase
{
    std::exception_ptr error;
    std::coroutine_handle<> cont; ///< The awaiter, once one suspended.
    bool detached = false;        ///< No owner: free the frame at the end.

    static void *
    operator new(std::size_t n)
    {
        return FramePool::forThisThread().alloc(n);
    }

    static void
    operator delete(void *p, std::size_t n)
    {
        FramePool::forThisThread().release(p, n);
    }

    /** Eager: the body runs until its first real suspension. */
    std::suspend_never initial_suspend() noexcept { return {}; }

    /** Symmetric transfer back to the awaiter (or free a detached
     *  frame).  A detached task has nobody to report an error to, the
     *  same as a helper process whose entry throws. */
    struct FinalAwaiter
    {
        bool await_ready() const noexcept { return false; }

        template <typename P>
        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<P> h) const noexcept
        {
            PromiseBase &p = h.promise();
            if (p.detached) {
                if (p.error)
                    std::terminate();
                h.destroy();
                return std::noop_coroutine();
            }
            return p.cont ? p.cont : std::noop_coroutine();
        }

        void await_resume() const noexcept {}
    };

    FinalAwaiter final_suspend() noexcept { return {}; }

    void unhandled_exception() noexcept { error = std::current_exception(); }
};

template <typename T>
struct Promise : PromiseBase
{
    T value{};

    Task<T> get_return_object();
    void return_value(T v) { value = std::move(v); }
};

template <>
struct Promise<void> : PromiseBase
{
    Task<void> get_return_object();
    void return_void() {}
};

/** Engine event that resumes a suspended coroutine. */
struct Resume
{
    std::coroutine_handle<> h;
    void operator()() const { h.resume(); }
};

} // namespace detail

/**
 * An eagerly started coroutine returning T, awaitable from another
 * coroutine.  Exceptions propagate to the awaiter at co_await (or to
 * get()).  Destroying a Task destroys its frame, and with it every
 * task the frame was awaiting.
 */
template <typename T>
class [[nodiscard]] Task
{
  public:
    using promise_type = detail::Promise<T>;

    /** No coroutine (a placeholder an owner may fill by move). */
    Task() = default;
    explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}
    Task(Task &&o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;
    Task &operator=(Task &&) = delete;

    ~Task()
    {
        if (h_)
            h_.destroy();
    }

    explicit operator bool() const { return static_cast<bool>(h_); }

    bool await_ready() const noexcept { return h_.done(); }

    void
    await_suspend(std::coroutine_handle<> cont) const noexcept
    {
        h_.promise().cont = cont;
    }

    T await_resume() const { return take(); }

    /**
     * The result of a completed task.  A task run from a fiber process
     * always has completed when its creating call returns, so this is
     * how the fiber APIs wrap the coroutine ones.
     */
    T
    get() const
    {
        ABSIM_CHECK(h_.done(), "task result read before it completed "
                               "(a blocking primitive suspended outside "
                               "a process?)");
        return take();
    }

    /** Let the task run on without an owner; its frame frees itself
     *  when the body returns.  A task that already finished reports
     *  its error here. */
    void
    detach()
    {
        if (h_.done()) {
            std::exception_ptr error = h_.promise().error;
            h_.destroy();
            h_ = nullptr;
            if (error)
                std::rethrow_exception(error);
            return;
        }
        h_.promise().detached = true;
        h_ = nullptr;
    }

  private:
    T
    take() const
    {
        if (h_.promise().error)
            std::rethrow_exception(h_.promise().error);
        if constexpr (!std::is_void_v<T>)
            return std::move(h_.promise().value);
    }

    std::coroutine_handle<promise_type> h_ = nullptr;
};

template <typename T>
Task<T>
detail::Promise<T>::get_return_object()
{
    return Task<T>{std::coroutine_handle<Promise>::from_promise(*this)};
}

inline Task<void>
detail::Promise<void>::get_return_object()
{
    return Task<void>{std::coroutine_handle<Promise>::from_promise(*this)};
}

/**
 * co_await Delay{eq, when}: Process::delayUntil(when) for a fiber
 * caller; otherwise the coroutine carries on at @p when in place
 * (EventQueue::advanceInPlace) when its resume event would be the very
 * next dispatch, and else suspends and one resume event is scheduled
 * at @p when.  Both count the same one dispatch.
 *
 * Carrying on in place is the same run because a suspended coroutine
 * is resumed only from a detail::Resume event or, the first time, from
 * spawn()'s start event via body().detach(), and neither does anything
 * a simulation can observe after control comes back to it: Resume
 * returns, detach() marks the frame detached.  So the code that would
 * have run in the resume event runs now, and nothing else runs in
 * between either way.  A new resumption site must keep that property.
 */
struct [[nodiscard]] Delay
{
    EventQueue &eq;
    Tick when;

    bool
    await_ready() const
    {
        if (Process *self = Process::current()) {
            self->delayUntil(when);
            return true;
        }
        return eq.advanceInPlace(when);
    }

    void
    await_suspend(std::coroutine_handle<> h) const
    {
        eq.schedule(when, detail::Resume{h});
    }

    void await_resume() const noexcept {}
};

/**
 * Run the task @p body() as a detached activity starting at tick
 * @p when: a self-deleting helper process named @p name under a fiber
 * caller (spawnDetached), else a detached coroutine that one event at
 * @p when starts.  Both schedule the one start event.  Like a helper
 * fiber, a detached coroutine still suspended when its run is abandoned
 * (a tripped budget) is never unwound.
 */
template <typename Body>
void
spawn(EventQueue &eq, const char *name, Tick when, Body body)
{
    if (Process::current() != nullptr) {
        spawnDetached(eq, name, [body] { body().get(); }, when);
        return;
    }
    eq.schedule(when, [body] { body().detach(); });
}

} // namespace absim::sim

#endif // ABSIM_SIM_TASK_HH
