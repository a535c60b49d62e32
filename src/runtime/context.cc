#include "runtime/context.hh"

#include <sstream>
#include <string>

#include "check/check.hh"
#include "fault/fault.hh"
#include "mem/addr.hh"
#include "sim/watchdog.hh"

namespace absim::rt {

Proc::Proc(Runtime &rt, net::NodeId id)
    : ProcCore(rt.engine(), id), rt_(rt)
{
}

std::uint32_t
Proc::procs() const
{
    return rt_.procs();
}

sim::Delay
Proc::syncToEngine()
{
    ABSIM_CHECK(process_ != nullptr &&
                    sim::Process::current() == process_,
                "syncToEngine outside processor " << node()
                                                  << "'s own process");
    ABSIM_CHECK(localTime_ >= eq_.now(),
                "processor " << node() << " local clock " << localTime_
                             << " fell behind the engine at "
                             << eq_.now());
    syncedThisAccess_ = true;
    return ProcCore::syncToEngine();
}

void
Proc::syncNow()
{
    // On the processor's own fiber the awaitable blocks in place.
    (void)syncToEngine().await_ready();
}

void
Proc::maybeYield()
{
    // The local clock may run ahead of the engine between shared events;
    // before touching shared state, let every earlier global event fire.
    if (localTime_ >= eq_.nextEventTime())
        syncNow();
}

void
Proc::compute(std::uint64_t n)
{
    computeNs(sim::cycles(n));
}

void
Proc::computeNs(sim::Duration ns)
{
    if (sink_ != nullptr) [[unlikely]]
        sink_->onCompute(node(), ns);
    chargeCompute(ns);
}

void
Proc::access(mem::Addr addr, mach::AccessType type, std::uint32_t bytes)
{
    ABSIM_DCHECK(bytes <= mem::kBlockBytes,
                 "access of " << bytes << " bytes exceeds a cache block");
    ABSIM_DCHECK(mem::blockOf(addr) == mem::blockOf(addr + bytes - 1),
                 "access at " << addr << " straddles cache blocks");
    if (sink_ != nullptr) [[unlikely]]
        sink_->onAccess(node(), addr, type, bytes);
    if (fault::armed()) [[unlikely]] {
        const fault::AccessFault af = fault::injector().onAccess(node());
        if (af.wedge)
            process_->suspend("fault-plan: wedged fiber (never woken)");
        if (af.corrupt)
            rt_.machine().corruptStateForFault(fault::injector().seed());
    }
    maybeYield();
    ABSIM_DCHECK(localTime_ >= eq_.now(),
                 "processor " << node() << " issued an access with its local "
                              << "clock behind the engine");
    const sim::Tick began = localTime_;
    syncedThisAccess_ = false;
    mach::AccessTiming t = rt_.machine().access(*this, addr, type, bytes);
    if (fault::armed() && t.networked &&
        fault::injector().consumeDropOverhead()) [[unlikely]] {
        // Fault injection (DropOverhead): lose the overhead charge of
        // this networked access; the conservation checker below must
        // catch the now-unaccounted engine time.
        t.latency = 0;
        t.contention = 0;
    }
    // Overhead conservation: a machine that blocked must charge exactly
    // the elapsed engine time as latency + contention, and one that did
    // not block may charge neither.
    if (check::options().conservation) {
        ABSIM_CHECK(syncedThisAccess_ || !t.networked,
                    "machine reported a networked access without "
                    "synchronizing to the engine first");
        if (syncedThisAccess_)
            ABSIM_CHECK_EQ(t.latency + t.contention,
                           eq_.now() - began,
                           "overhead buckets must partition the engine "
                           "time this access blocked for");
        else
            ABSIM_CHECK(t.latency == 0 && t.contention == 0,
                        "non-blocking access charged latency="
                            << t.latency << " contention="
                            << t.contention);
    }
    chargeAccess(t);
}

void
Proc::beginPhase(const std::string &name)
{
    if (sink_ != nullptr) [[unlikely]]
        sink_->onPhase(node(), name);
    enterPhase(name);
}

void
Proc::absorbEngineTime(sim::Duration latency, sim::Duration contention,
                       sim::Duration wait)
{
    const sim::Tick now = eq_.now();
    ABSIM_CHECK(now >= localTime_,
                "absorbEngineTime with processor " << node()
                    << " ahead of the engine");
    if (check::options().conservation)
        ABSIM_CHECK_EQ(latency + contention + wait, now - localTime_,
                       "buckets must partition the elapsed engine time");
    localTime_ = now;
    stats_.latency += latency;
    stats_.contention += contention;
    stats_.wait += wait;
}

Runtime::Runtime(sim::EventQueue &eq, mach::Machine &machine,
                 std::uint32_t p)
    : eq_(eq), machine_(machine), p_(p)
{
    ABSIM_CHECK(p >= 1, "a runtime needs at least one processor");
}

Runtime::~Runtime() = default;

void
Runtime::spawn(std::function<void(Proc &)> body)
{
    ABSIM_CHECK(procs_.empty(), "spawn may only be called once");
    procs_.reserve(p_);
    processes_.reserve(p_);
    for (std::uint32_t i = 0; i < p_; ++i) {
        procs_.push_back(std::make_unique<Proc>(*this, i));
        procs_.back()->bindSink(sink_);
    }
    for (std::uint32_t i = 0; i < p_; ++i) {
        Proc *proc = procs_[i].get();
        processes_.push_back(std::make_unique<sim::Process>(
            eq_, "worker-" + std::to_string(i), [this, proc, body] {
                // Exceptions must not unwind across the fiber boundary;
                // capture and rethrow from run() on the scheduler stack.
                try {
                    body(*proc);
                } catch (...) {
                    if (!workerError_)
                        workerError_ = std::current_exception();
                    // The dead worker's peers would spin at a barrier
                    // nobody will reach — in simulated time, so not
                    // even the stall watchdog trips.  Halt the engine;
                    // run() rethrows the root cause.
                    eq_.requestStop();
                }
                proc->recordFinish();
            }));
        proc->bindProcess(processes_.back().get());
        processes_.back()->start(0);
    }
}

void
Runtime::run()
{
    try {
        eq_.run();
    } catch (...) {
        // A watchdog may fire *because* a worker already died (its
        // peers spin at a barrier nobody will reach, until a budget
        // trips).  The worker's exception is the root cause; prefer it.
        if (workerError_)
            std::rethrow_exception(workerError_);
        throw;
    }
    if (workerError_)
        std::rethrow_exception(workerError_);
    // The queue drained; every worker must have finished.  Unfinished
    // workers mean the simulation deadlocked (all remaining fibers are
    // blocked with nobody left to wake them): report which, and on
    // what, instead of tripping an opaque assertion.
    std::size_t unfinished = 0;
    for (const auto &p : processes_)
        if (!p->finished())
            ++unfinished;
    if (unfinished > 0) {
        std::ostringstream oss;
        oss << "deadlock: event queue drained with " << unfinished
            << " of " << processes_.size() << " workers still blocked";
        throw sim::DeadlockError(oss.str(), eq_.dispatched(), eq_.now(),
                                 eq_.blockedProcesses());
    }
    // The caches and directory must be mutually consistent once the
    // simulation has drained (full sweep; per-transaction checks ran
    // incrementally during the run).
    machine_.checkInvariants();
}

} // namespace absim::rt
