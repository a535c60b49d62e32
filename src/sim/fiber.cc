#include "sim/fiber.hh"

#include <cstdlib>
#include <cstring>
#include <utility>

#include "check/check.hh"
#include "check/sanitizer.hh"

#if ABSIM_FIBER_RAW_SWITCH

extern "C" void absimFiberSwitch(void **save_sp, void *restore_sp);

// System V x86-64 cooperative context switch: save the callee-saved
// GPRs and the SSE/x87 control words (everything a function call must
// preserve), publish the old stack pointer, adopt the peer's, restore,
// and return onto the peer's stack.  This replaces swapcontext(),
// whose two mandatory sigprocmask() system calls per switch dominated
// fiber cost; the simulator never changes signal masks per fiber, so
// nothing is lost.  Exceptions never unwind across a switch (worker
// exceptions are caught on the fiber's own stack and rethrown on the
// scheduler's), so the missing CFI here is unreachable by design.
asm(R"(
        .text
        .align  16
        .globl  absimFiberSwitch
        .type   absimFiberSwitch, @function
absimFiberSwitch:
        pushq   %rbp
        pushq   %rbx
        pushq   %r12
        pushq   %r13
        pushq   %r14
        pushq   %r15
        subq    $16, %rsp
        stmxcsr (%rsp)
        fnstcw  4(%rsp)
        movq    %rsp, (%rdi)
        movq    %rsi, %rsp
        ldmxcsr (%rsp)
        fldcw   4(%rsp)
        addq    $16, %rsp
        popq    %r15
        popq    %r14
        popq    %r13
        popq    %r12
        popq    %rbx
        popq    %rbp
        retq
        .size   absimFiberSwitch, .-absimFiberSwitch
)");

#endif // ABSIM_FIBER_RAW_SWITCH

namespace absim::sim {

namespace {

/// The fiber currently executing on this thread (nullptr = scheduler).
/// A fiber switching back to the scheduler leaves itself here, and
/// resume() takes it: with hand-offs, the fiber that comes back need
/// not be the one resume() entered.
thread_local Fiber *tl_current = nullptr;

/**
 * Canary word written at the overflow end (lowest addresses) of every
 * fiber stack.  Stacks grow downwards, so an overflow scribbles here
 * before escaping the buffer; the word is verified on every switch out
 * of the fiber, catching the overflow before it can corrupt the heap.
 */
constexpr std::uint64_t kStackCanary = 0xF1BE25AFE57AC000ull;

} // namespace

FiberStackPool &
FiberStackPool::forThisThread()
{
    thread_local FiberStackPool pool;
    return pool;
}

std::unique_ptr<unsigned char[]>
FiberStackPool::acquire(std::size_t bytes)
{
    if (bytes == kPooledStackBytes && !pool_.empty()) {
        ++reused_;
        auto stack = std::move(pool_.back());
        pool_.pop_back();
        return stack;
    }
    ++allocated_;
    // new[] of char leaves the memory uninitialized; a fiber stack needs
    // no zeroing.
    return std::unique_ptr<unsigned char[]>(new unsigned char[bytes]);
}

FiberStackPool::~FiberStackPool()
{
    // The thread is going away with stacks still pooled.  Hand the
    // memory back to the allocator with its shadow clean: a stack
    // poisoned by a fiber's ASan instrumentation must not leak its
    // poison into whatever the allocator hands out at these addresses
    // next (the allocator only scrubs shadow for the exact chunks it
    // re-issues, not for arbitrary interior regions).
    for (const auto &stack : pool_)
        check::unpoisonStackMemory(stack.get(), kPooledStackBytes);
}

void
FiberStackPool::recycle(std::unique_ptr<unsigned char[]> stack,
                        std::size_t bytes)
{
    // Unpoison on every return path — including stacks this pool is
    // about to *drop* (odd-sized, or pool at capacity).  Freeing a
    // still-poisoned buffer used to leave stale shadow behind the
    // allocator's back.
    check::unpoisonStackMemory(stack.get(), bytes);
    if (bytes == kPooledStackBytes && pool_.size() < kMaxPooled)
        pool_.push_back(std::move(stack));
}

Fiber::Fiber(std::function<void()> entry, std::size_t stack_bytes)
    : entry_(std::move(entry)), stackBytes_(stack_bytes),
      stack_(FiberStackPool::forThisThread().acquire(stack_bytes))
{
    ABSIM_CHECK(entry_ != nullptr, "fiber needs an entry function");
    ABSIM_CHECK(stackBytes_ > sizeof(kStackCanary),
                "fiber stack of " << stackBytes_
                                  << " bytes cannot hold the canary");
    std::memcpy(stack_.get(), &kStackCanary, sizeof(kStackCanary));
}

Fiber::~Fiber()
{
    // A fiber destroyed mid-flight simply abandons its execution state;
    // its stack memory is still recyclable.
    check::tsanDestroyFiber(tsanFiber_);
    FiberStackPool::forThisThread().recycle(std::move(stack_),
                                            stackBytes_);
}

void
Fiber::checkCanary() const
{
    std::uint64_t word = 0;
    std::memcpy(&word, stack_.get(), sizeof(word));
    ABSIM_CHECK(word == kStackCanary,
                "fiber stack overflow: canary at the bottom of the "
                    << stackBytes_
                    << "-byte stack was clobbered (0x" << std::hex << word
                    << std::dec << ")");
}

void
Fiber::corruptStackCanaryForTest()
{
    std::memset(stack_.get(), 0x5c, sizeof(kStackCanary));
}

void
Fiber::initContext()
{
#if ABSIM_FIBER_RAW_SWITCH
    // Build the frame absimFiberSwitch restores from, so the first
    // switch in "returns" into trampoline() on this stack.  Matching
    // the switch's save layout, from the top down: a null fake return
    // address (trampoline never returns), the entry address the final
    // retq pops, six zeroed callee-saved slots, and a 16-byte control
    // area holding the power-on MXCSR/x87 control words.
    const auto top =
        reinterpret_cast<std::uintptr_t>(stack_.get() + stackBytes_) &
        ~std::uintptr_t{15};
    auto *sp = reinterpret_cast<std::uint64_t *>(top);
    *--sp = 0;
    *--sp = reinterpret_cast<std::uint64_t>(&Fiber::trampoline);
    for (int i = 0; i < 6; ++i)
        *--sp = 0; // rbp, rbx, r12-r15
    *--sp = 0;
    *--sp = 0;
    const std::uint32_t mxcsr = 0x1f80;
    const std::uint16_t fcw = 0x037f;
    std::memcpy(sp, &mxcsr, sizeof(mxcsr));
    std::memcpy(reinterpret_cast<unsigned char *>(sp) + 4, &fcw,
                sizeof(fcw));
    fiberSp_ = sp;
#else
    getcontext(&context_);
    context_.uc_stack.ss_sp = stack_.get();
    context_.uc_stack.ss_size = stackBytes_;
    // trampoline() never returns: it switches to the scheduler itself.
    context_.uc_link = nullptr;
    makecontext(&context_, reinterpret_cast<void (*)()>(&trampoline), 0);
#endif
}

void
Fiber::switchToScheduler()
{
#if ABSIM_FIBER_RAW_SWITCH
    absimFiberSwitch(&fiberSp_, link_.sp);
#else
    swapcontext(&context_, link_.context);
#endif
}

void
Fiber::arrive(void *fake_stack)
{
    const void *bottom = nullptr;
    std::size_t size = 0;
    check::annotateSwitchFinish(fake_stack, &bottom, &size);
    // resume() cleared the bounds, so the stack just left is the
    // scheduler's; after a hand-off it is the fiber that handed off,
    // and the scheduler's bounds already came with the link.
    if (link_.asanBottom == nullptr) {
        link_.asanBottom = bottom;
        link_.asanSize = size;
    }
    ABSIM_DCHECK(tl_current == this, "resume handshake out of sync");
}

void
Fiber::trampoline()
{
    Fiber *self = tl_current;
    ABSIM_CHECK(self != nullptr, "fiber trampoline without a current fiber");
    // First instruction on this stack: finish the switch resume() began
    // and learn the scheduler stack's bounds for the switches back.
    check::annotateSwitchFinish(nullptr, &self->link_.asanBottom,
                                &self->link_.asanSize);
    self->entry_();
    self->finished_ = true;
    // Return to the scheduler for good, naming this fiber in tl_current
    // for resume().  The nullptr handle tells ASan this stack is
    // abandoned.
    check::annotateSwitchStart(nullptr, self->link_.asanBottom,
                               self->link_.asanSize);
    check::tsanSwitchFiber(self->link_.tsanFiber);
    self->switchToScheduler();
    // Never reached.
    std::abort();
}

void
Fiber::resume()
{
    ABSIM_CHECK(!finished_, "resume of a finished fiber");
    ABSIM_CHECK(tl_current == nullptr,
                "fibers may only be resumed from the scheduler context");

    if (!started_) {
        started_ = true;
        initContext();
        tsanFiber_ = check::tsanCreateFiber();
    }
    tl_current = this;
    link_.asanBottom = nullptr; // Captured by the fiber on arrival.
    link_.tsanFiber = check::tsanCurrentFiber();
    void *fake_stack = nullptr;
    check::annotateSwitchStart(&fake_stack, stack_.get(), stackBytes_);
    check::tsanSwitchFiber(tsanFiber_);
#if ABSIM_FIBER_RAW_SWITCH
    absimFiberSwitch(&link_.sp, fiberSp_);
#else
    ucontext_t scheduler;
    link_.context = &scheduler;
    swapcontext(&scheduler, &context_);
#endif
    check::annotateSwitchFinish(fake_stack, nullptr, nullptr);
    // Back in the scheduler: this fiber, or one reached from it by
    // hand-off, yielded or finished.
    Fiber *back = std::exchange(tl_current, nullptr);
    ABSIM_DCHECK(back != nullptr, "fiber switch lost the current fiber");
    back->checkCanary();
}

void
Fiber::yield()
{
    Fiber *self = tl_current;
    ABSIM_CHECK(self != nullptr, "yield() called outside any fiber");
    self->checkCanary();
    void *fake_stack = nullptr;
    check::annotateSwitchStart(&fake_stack, self->link_.asanBottom,
                               self->link_.asanSize);
    check::tsanSwitchFiber(self->link_.tsanFiber);
    self->switchToScheduler();
    self->arrive(fake_stack);
}

void
Fiber::handOff(Fiber &next)
{
    Fiber *self = tl_current;
    ABSIM_CHECK(self != nullptr, "handOff() called outside any fiber");
    ABSIM_CHECK(next.started_ && !next.finished_ && &next != self,
                "hand-off needs another started, unfinished fiber");
    self->checkCanary();
    next.link_ = self->link_;
    tl_current = &next;
    void *fake_stack = nullptr;
    check::annotateSwitchStart(&fake_stack, next.stack_.get(),
                               next.stackBytes_);
    check::tsanSwitchFiber(next.tsanFiber_);
#if ABSIM_FIBER_RAW_SWITCH
    absimFiberSwitch(&self->fiberSp_, next.fiberSp_);
#else
    swapcontext(&self->context_, &next.context_);
#endif
    self->arrive(fake_stack);
}

Fiber *
Fiber::current()
{
    return tl_current;
}

} // namespace absim::sim
