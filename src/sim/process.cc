#include "sim/process.hh"

#include <utility>

#include "check/check.hh"

namespace absim::sim {

namespace {
/** The process whose fiber just finished, named for the scheduler:
 *  after hand-offs, the fiber that returns from a resume need not be
 *  the resumed process's own. */
thread_local Process *tl_finished = nullptr;
} // namespace

std::string
WaitReason::str() const
{
    std::string out = what_;
    if (key0_ != nullptr) {
        out += " (";
        out += key0_;
        out += '=';
        out += std::to_string(value0_);
        if (key1_ != nullptr) {
            out += ' ';
            out += key1_;
            out += '=';
            out += std::to_string(value1_);
        }
        out += ')';
    }
    return out;
}

std::string
toString(ProcState state)
{
    switch (state) {
      case ProcState::Created:
        return "created";
      case ProcState::Runnable:
        return "runnable";
      case ProcState::Running:
        return "running";
      case ProcState::Delayed:
        return "delayed";
      case ProcState::Suspended:
        return "suspended";
      case ProcState::Finished:
        return "finished";
    }
    return "?";
}

Process::Process(EventQueue &eq, std::string name,
                 std::function<void()> entry)
    : eq_(eq), name_(std::move(name)),
      fiber_([this, entry = std::move(entry)] {
          detail::tl_current_process = this;
          entry();
          detail::tl_current_process = nullptr;
          tl_finished = this;
      })
{
    eq_.registerProcess(this);
}

Process::~Process()
{
    eq_.unregisterProcess(this);
}

void
Process::start(Tick when)
{
    state_ = ProcState::Runnable;
    scheduleResume(when);
}

void
Process::scheduleResume(Tick when)
{
    eq_.schedule(when, Resume{this});
}

void
Process::resumeFromScheduler()
{
    Process *prev = detail::tl_current_process;
    state_ = ProcState::Running;
    // A check failure thrown out of an earlier resume (a clobbered
    // canary, under a throwing handler) may have left a name here.
    tl_finished = nullptr;
    fiber_.resume();
    detail::tl_current_process = prev;
    // The fiber that came back is this process's or, after hand-offs,
    // another's.  A finished one named itself.
    if (Process *done = std::exchange(tl_finished, nullptr))
        done->state_ = ProcState::Finished;
}

void
Process::block()
{
    detail::tl_current_process = nullptr;
    // When run()'s next dispatch resumes another started process, take
    // that event here and switch straight into its fiber: one stack
    // switch instead of a yield and a resume.  A first entry, and any
    // dispatch that could trip or act, stay with the scheduler.
    const Resume *next = eq_.quietFront<Resume>();
    if (next != nullptr && next->proc->fiber_.started()) {
        Process *target = next->proc;
        eq_.handOffFront();
        target->state_ = ProcState::Running;
        Fiber::handOff(target->fiber_);
    } else {
        Fiber::yield();
    }
    detail::tl_current_process = this;
}

void
Process::delayUntil(Tick when)
{
    ABSIM_CHECK(current() == this,
                "delayUntil from outside process \"" << name_ << "\"");
    ABSIM_CHECK(when >= eq_.now(),
                "process \"" << name_ << "\" delayed into the past ("
                    << when << " < " << eq_.now() << ")");
    // Our resume event would be the next dispatch: take it in place.
    // Nothing runs after a resume event's fiber switch but this
    // process, so carrying on here is the same run.
    if (eq_.advanceInPlace(when))
        return;
    scheduleResume(when);
    state_ = ProcState::Delayed;
    delayedUntil_ = when;
    block();
}

void
Process::suspend(WaitReason reason)
{
    ABSIM_CHECK(current() == this,
                "suspend from outside process \"" << name_ << "\"");
    suspended_ = true;
    state_ = ProcState::Suspended;
    waitReason_ = reason;
    block();
    waitReason_ = WaitReason{};
    ABSIM_DCHECK(!suspended_, "woken process still marked suspended");
}

void
Process::wake()
{
    ABSIM_CHECK(suspended_,
                "wake of process \"" << name_
                                     << "\" that is not suspended");
    suspended_ = false;
    state_ = ProcState::Runnable;
    scheduleResume(eq_.now());
}

} // namespace absim::sim
