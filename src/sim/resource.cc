#include "sim/resource.hh"

#include "check/check.hh"
#include "sim/task.hh"

namespace absim::sim {

void
Waiter::wake() const
{
    if (process != nullptr)
        process->wake();
    else
        eq->schedule(eq->now(), detail::Resume{handle});
}

Duration
FifoMutex::acquire()
{
    Process *self = Process::current();
    ABSIM_CHECK(self != nullptr, "FifoMutex::acquire outside a process");
    if (tryTake())
        return 0;
    Tick began = self->engine().now();
    Waiter node{self, {}, nullptr};
    enqueue(node);
    self->suspend("fifo-mutex acquire");
    // Woken by release(): the mutex was handed to us directly.
    ABSIM_DCHECK(locked_, "FifoMutex hand-off lost the lock");
    Duration waited = self->engine().now() - began;
    totalWait_ += waited;
    return waited;
}

void
FifoMutex::release()
{
    ABSIM_CHECK(locked_, "release of an unlocked FifoMutex");
    if (head_ == nullptr) {
        locked_ = false;
        return;
    }
    // Hand-off: stays locked, next waiter becomes the owner.  Unlink the
    // node before the wake: once its party runs, its frame may be gone.
    const Waiter next = *head_;
    head_ = next.next;
    if (head_ == nullptr)
        tail_ = nullptr;
    --count_;
    next.wake();
}

void
Latch::countDown()
{
    ABSIM_CHECK(count_ > 0, "countDown of an exhausted Latch");
    if (--count_ == 0 && waiter_) {
        const Waiter w = waiter_;
        waiter_ = Waiter{};
        w.wake();
    }
}

void
Latch::await()
{
    Process *self = Process::current();
    ABSIM_CHECK(self != nullptr, "Latch::await outside a process");
    ABSIM_CHECK(!waiter_, "Latch supports a single waiter");
    if (count_ == 0)
        return;
    waiter_ = Waiter{self, {}, nullptr};
    self->suspend({"latch await", "count", count_});
}

} // namespace absim::sim
