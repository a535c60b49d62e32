#include "runtime/sync.hh"

#include <string>

#include "sim/watchdog.hh"

namespace absim::rt {

namespace {

/**
 * Run one synchronization operation: drive @p spin through @p p's
 * accesses, applying each to its native word (@p a's, or @p b's if the
 * access names that).  A sink records the one operation (@p value: a
 * flag wait's awaited value) and suppresses its spin accesses, which
 * replay regenerates per machine (see runtime/ref_sink.hh).
 */
void
drive(Proc &p, SyncKind kind, std::uint64_t value, Spin spin,
      SharedArray<std::uint64_t> &a, SharedArray<std::uint64_t> &b)
{
    RefSink *const sink = p.sink();
    if (sink != nullptr) [[unlikely]]
        sink->onSyncBegin(p.node(), kind, spin.word(), value);
    Spin::Next next = Spin::Next::Access;
    while (next != Spin::Next::Done) {
        SharedArray<std::uint64_t> &word = spin.word() == a.addrOf(0) ? a : b;
        p.access(spin.word(), spin.type(), sizeof(std::uint64_t));
        next = spin.complete(word.raw(0));
        if (next == Spin::Next::Failed && !p.spinFailed(spin)) {
            sim::EventQueue &eq = p.runtime().engine();
            throw sim::DeadlockError(
                "livelock: processor " + std::to_string(p.node()) +
                    " spins on word " + std::to_string(spin.word()) +
                    " that no pending event can change",
                eq.dispatched(), eq.now(), eq.blockedProcesses());
        }
    }
    if (sink != nullptr) [[unlikely]]
        sink->onSyncEnd(p.node());
}

} // namespace

bool
ProcCore::spinFailed(Spin &spin)
{
    if (eq_.pending() == 0)
        return false;
    chargeCompute(sim::cycles(spin.backoff.next()));
    return true;
}

Spin
Spin::lock(mem::Addr word, LockKind kind)
{
    Spin spin;
    spin.testFirst_ = kind == LockKind::TestTestAndSet;
    if (spin.testFirst_)
        spin.next(Step::LockTest, word, mach::AccessType::Read);
    else
        spin.next(Step::LockSet, word, mach::AccessType::Rmw);
    return spin;
}

Spin
Spin::arrive(BarrierWords &barrier, net::NodeId node)
{
    Spin spin;
    spin.barrier_ = &barrier;
    spin.target_ = barrier.localSense[node] = 1 - barrier.localSense[node];
    spin.next(Step::BarrierArrive, barrier.count, mach::AccessType::Rmw);
    return spin;
}

Spin
Spin::waitFor(mem::Addr word, std::uint64_t value)
{
    Spin spin;
    spin.target_ = value;
    spin.next(Step::Poll, word, mach::AccessType::Read);
    return spin;
}

Spin::Next
Spin::complete(std::uint64_t &value)
{
    const std::uint64_t old = value;
    switch (step_) {
      case Step::LockTest:
        // Test loop: spin with plain reads until the lock looks free.
        // On a cached machine these are local hits; on the LogP machine
        // each is a remote reference — the paper's observed
        // degeneration of TTS into TS behaviour.
        if (old != 0)
            return Next::Failed;
        next(Step::LockSet, word_, mach::AccessType::Rmw);
        return Next::Access;
      case Step::LockSet:
        value = 1;
        if (old == 0)
            return Next::Done;
        if (testFirst_)
            next(Step::LockTest, word_, mach::AccessType::Read);
        return Next::Failed;
      case Step::BarrierArrive:
        value = old + 1;
        if (old == barrier_->parties - 1) // Last: reset, release all.
            next(Step::BarrierReset, word_, mach::AccessType::Write);
        else
            next(Step::Poll, barrier_->sense, mach::AccessType::Read);
        return Next::Access;
      case Step::BarrierReset:
        value = 0;
        next(Step::BarrierRelease, barrier_->sense, mach::AccessType::Write);
        return Next::Access;
      case Step::BarrierRelease:
        value = target_;
        return Next::Done;
      case Step::Poll:
        break;
    }
    return old == target_ ? Next::Done : Next::Failed;
}

SpinLock::SpinLock(SharedHeap &heap, net::NodeId home, LockKind kind)
    : word_(heap, 1, Placement::OnNode, home), kind_(kind)
{
}

void
SpinLock::lock(Proc &p)
{
    drive(p,
          kind_ == LockKind::TestTestAndSet ? SyncKind::LockTTS
                                            : SyncKind::LockTS,
          0, Spin::lock(word_.addrOf(0), kind_), word_, word_);
}

void
SpinLock::unlock(Proc &p)
{
    word_.write(p, 0, 0);
}

Barrier::Barrier(SharedHeap &heap, std::uint32_t parties, net::NodeId home)
    : count_(heap, 1, Placement::OnNode, home),
      sense_(heap, 1, Placement::OnNode, home),
      words_{count_.addrOf(0), sense_.addrOf(0), parties}
{
    if (RefSink *s = heap.sink()) [[unlikely]]
        s->onBarrierCtor(words_.count, words_.sense, parties);
}

void
Barrier::arrive(Proc &p)
{
    drive(p, SyncKind::BarrierArrive, 0, Spin::arrive(words_, p.node()),
          count_, sense_);
}

Flag::Flag(SharedHeap &heap, net::NodeId home)
    : word_(heap, 1, Placement::OnNode, home)
{
}

void
Flag::set(Proc &p, std::uint64_t value)
{
    word_.write(p, 0, value);
}

void
Flag::waitFor(Proc &p, std::uint64_t value)
{
    drive(p, SyncKind::FlagWait, value, Spin::waitFor(word_.addrOf(0), value),
          word_, word_);
}

} // namespace absim::rt
