#include "trace_replay/replay.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "machines/registry.hh"
#include "runtime/shared.hh"
#include "runtime/sync.hh"
#include "sim/event_queue.hh"
#include "sim/task.hh"
#include "stats/histogram.hh"

namespace absim::trace {

namespace {

using mach::AccessTiming;
using mach::AccessType;
using net::NodeId;

/** A barrier's words and parties, rebuilt from its setup record. */
struct BarrierInfo
{
    std::uint32_t parties = 0;
    mem::Addr senseAddr = 0;
    std::array<std::uint64_t, mem::kMaxNodes> localSense{};
};

/** Which access of the current op the interpreter issues next; the
 *  sync ops are small state machines over these steps, regenerating
 *  the spin loops of rt::SpinLock, rt::Barrier and rt::Flag. */
enum class Step : std::uint8_t
{
    Plain,          ///< The op's one access; its value effect follows.
    LockTest,       ///< TTS: read of the lock word until it looks free.
    LockSet,        ///< Test&set of the lock word.
    BarrierArrive,  ///< Fetch&add of the count word.
    BarrierReset,   ///< Last arriver: count word := 0.
    BarrierRelease, ///< Last arriver: sense word := my sense.
    BarrierSpin,    ///< Read of the sense word until it flips.
    FlagSpin,       ///< Read of the flag word until it holds the value.
};

/**
 * One replayed processor: what rt::Proc keeps (local clock, overhead
 * accounts, phases) plus the interpreter's cursor.  As the machine's
 * MemClient it synchronizes through the replay's event queue.
 */
class Worker final : public mach::MemClient
{
  public:
    Worker(sim::EventQueue &eq, NodeId id) : MemClient(id), eq_(eq) {}

    sim::Tick localTime() const override { return local; }
    sim::Delay syncToEngine() override { return sim::Delay{eq_, local}; }

    /** Proc::computeNs. */
    void
    compute(sim::Duration ns)
    {
        local += ns;
        stats.busy += ns;
    }

    /** The Proc::access postlude: fold one access's timing in. */
    void
    charge(const AccessTiming &t)
    {
        local = std::max(local, eq_.now()) + t.busy;
        stats.busy += t.busy;
        stats.latency += t.latency;
        stats.contention += t.contention;
        ++stats.accesses;
        if (t.networked) {
            ++stats.networkAccesses;
            hist.record(t.latency + t.contention);
        }
    }

    void
    flushPhase()
    {
        stats::flushPhase(stats, phaseSnapshot_, currentPhase, phases);
    }

    /** Make @p addr / @p type the next access, in step @p s. */
    void
    next(Step s, mem::Addr addr, AccessType type)
    {
        step = s;
        this->addr = addr;
        this->type = type;
    }

    sim::Tick local = 0;
    stats::ProcStats stats;
    stats::Histogram hist;
    std::string currentPhase = "main";
    std::vector<stats::PhaseStats> phases;

    // Interpreter cursor.
    std::uint64_t lastRmwOld = 0;
    Step step = Step::Plain;
    mem::Addr addr = 0;
    AccessType type = AccessType::Read;
    rt::Backoff backoff;
    std::uint64_t mySense = 0;
    const BarrierInfo *barrier = nullptr;

  private:
    sim::EventQueue &eq_;
    stats::ProcStats phaseSnapshot_;
};

/**
 * The replayed value store: a flat open-addressing table over the
 * trace's valueWords, the only words a replayed op reads.  The key set
 * is fixed at construction, so the table is sized by it, not by the op
 * count.  A store to any other word is dropped; a load of one means the
 * trace was never indexed, which is an error rather than a silent 0.
 */
class ValueStore
{
  public:
    explicit ValueStore(const std::vector<mem::Addr> &words)
    {
        unsigned bits = 1;
        while ((std::size_t{1} << bits) < 2 * words.size())
            ++bits;
        shift_ = 64 - bits;
        slots_.resize(std::size_t{1} << bits);
        for (const mem::Addr a : words) {
            Slot &slot = probe(a);
            slot.used = true;
            slot.key = a;
        }
    }

    void
    store(mem::Addr a, std::uint64_t v)
    {
        Slot &slot = probe(a);
        if (slot.used)
            slot.value = v;
    }

    std::uint64_t
    load(mem::Addr a)
    {
        const Slot &slot = probe(a);
        if (!slot.used)
            throw ReplayError(
                "trace: value word " + std::to_string(a) +
                " is not indexed (a hand-built trace must call "
                "trace::indexValueWords)");
        return slot.value;
    }

  private:
    struct Slot
    {
        mem::Addr key = 0;
        std::uint64_t value = 0;
        bool used = false;
    };

    /** @p a's slot, or the empty slot that ends its probe sequence
     *  (at most half the slots are used, so one always does). */
    Slot &
    probe(mem::Addr a)
    {
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = (a * 0x9e3779b97f4a7c15ull) >> shift_;;
             i = (i + 1) & mask) {
            Slot &slot = slots_[i];
            if (!slot.used || slot.key == a)
                return slot;
        }
    }

    std::vector<Slot> slots_;
    unsigned shift_ = 63;
};

std::uint64_t
maskTo(std::uint64_t v, std::uint32_t bytes)
{
    return bytes >= 8 ? v : v & ((std::uint64_t{1} << (8 * bytes)) - 1);
}

/** The trace interpreter: per-processor op streams driven through a
 *  registry machine on one event queue. */
class Replayer
{
  public:
    Replayer(const Trace &trace, const ReplaySpec &spec)
        : trace_(trace), heap_(trace.procs),
          machine_(mach::makeMachine(spec.machine, eq_, spec.topology,
                                     trace.procs, heap_, spec.gapPolicy,
                                     spec.cache, spec.protocol)),
          values_(trace.valueWords)
    {
        rebuildSetup();
    }

    stats::Profile run(const sim::RunBudget *budget);

  private:
    void rebuildSetup();
    sim::Task<> interpret(Worker &w, const std::vector<Op> &ops);
    bool begin(Worker &w, const Op &op);
    bool advance(Worker &w, const Op &op);
    void spinFailed(Worker &w);

    const Trace &trace_;
    sim::EventQueue eq_;
    rt::SharedHeap heap_;
    std::unique_ptr<mach::Machine> machine_;
    ValueStore values_;
    std::unordered_map<mem::Addr, BarrierInfo> barriers_;
    std::vector<Worker> workers_;
    std::uint32_t unfinished_ = 0;
    std::exception_ptr error_;
};

void
Replayer::rebuildSetup()
{
    for (const SetupOp &op : trace_.setup) {
        switch (op.kind) {
          case SetupOp::Alloc: {
            const mem::Addr base = heap_.allocate(
                op.a, static_cast<rt::Placement>(op.b),
                static_cast<NodeId>(op.c));
            if (base != op.d)
                throw ReplayError(
                    "trace: allocator layout mismatch (trace recorded a "
                    "different heap discipline?)");
            break;
          }
          case SetupOp::Barrier: {
            BarrierInfo b;
            b.parties = static_cast<std::uint32_t>(op.c);
            b.senseAddr = op.b;
            barriers_[op.a] = b;
            break;
          }
          case SetupOp::InitValue:
            values_.store(op.a, op.b);
            break;
        }
    }
}

/**
 * One processor's stream, in the shape of the worker fiber: every
 * access is Proc::access — yield to earlier events, then the machine's
 * probe, then (only if it declined) its miss task.  Hits, the great
 * majority, never leave this frame.
 */
sim::Task<>
Replayer::interpret(Worker &w, const std::vector<Op> &ops)
{
    try {
        co_await sim::Delay{eq_, 0}; // Process::start(0): the spawn event.
        for (const Op &op : ops) {
            if (!begin(w, op))
                continue;
            do {
                if (w.local >= eq_.nextEventTime())
                    co_await sim::Delay{eq_, w.local};
                AccessTiming t;
                if (!machine_->probe(w, w.addr, w.type, t))
                    t = co_await machine_->miss(w, w.addr, w.type);
                w.charge(t);
            } while (advance(w, op));
        }
        // Proc::recordFinish.
        w.stats.finishTime = w.local;
        w.flushPhase();
        --unfinished_;
    } catch (...) {
        if (!error_)
            error_ = std::current_exception();
        eq_.requestStop();
    }
}

/** Start @p op: apply it if it needs no access, else aim the cursor at
 *  its first access.  @return true if an access is due. */
bool
Replayer::begin(Worker &w, const Op &op)
{
    w.backoff = rt::Backoff{};
    switch (op.kind) {
      case OpKind::Compute:
        w.compute(op.value);
        return false;
      case OpKind::Phase:
        w.flushPhase();
        w.currentPhase = trace_.phaseNames[op.aux];
        return false;
      case OpKind::Read:
        w.next(Step::Plain, op.addr, AccessType::Read);
        return true;
      case OpKind::Write:
        w.next(Step::Plain, op.addr, AccessType::Write);
        return true;
      case OpKind::DepWrite:
        // Slot re-derived from the *replayed* RMW result.
        w.next(Step::Plain, op.addr + w.lastRmwOld * op.bytes,
               AccessType::Write);
        return true;
      case OpKind::RmwFetchAdd:
      case OpKind::RmwTestAndSet:
        w.next(Step::Plain, op.addr, AccessType::Rmw);
        return true;
      case OpKind::SyncLockTS:
        w.next(Step::LockSet, op.addr, AccessType::Rmw);
        return true;
      case OpKind::SyncLockTTS:
        w.next(Step::LockTest, op.addr, AccessType::Read);
        return true;
      case OpKind::SyncBarrier: {
        // Sense reversal (rt::Barrier::arrive).
        const auto it = barriers_.find(op.addr);
        if (it == barriers_.end())
            throw ReplayError("trace: barrier arrival without a barrier "
                              "setup record");
        w.barrier = &it->second;
        w.mySense = 1 - it->second.localSense[w.node()];
        it->second.localSense[w.node()] = w.mySense;
        w.next(Step::BarrierArrive, op.addr, AccessType::Rmw);
        return true;
      }
      case OpKind::SyncFlagWait:
        w.next(Step::FlagSpin, op.addr, AccessType::Read);
        return true;
    }
    throw ReplayError("trace: unknown op kind");
}

/** The access at the cursor completed: apply its value effect and aim
 *  the cursor at the op's next access.  @return true if one is due. */
bool
Replayer::advance(Worker &w, const Op &op)
{
    switch (w.step) {
      case Step::Plain:
        switch (op.kind) {
          case OpKind::Write:
          case OpKind::DepWrite:
            values_.store(w.addr, op.value);
            break;
          case OpKind::RmwFetchAdd: {
            const std::uint64_t old = values_.load(w.addr);
            values_.store(w.addr, maskTo(old + op.value, op.bytes));
            w.lastRmwOld = old;
            break;
          }
          case OpKind::RmwTestAndSet:
            w.lastRmwOld = values_.load(w.addr);
            values_.store(w.addr, 1);
            break;
          default:
            break;
        }
        return false;

      case Step::LockTest:
        if (values_.load(w.addr) == 0)
            w.next(Step::LockSet, w.addr, AccessType::Rmw);
        else
            spinFailed(w);
        return true;

      case Step::LockSet: {
        const std::uint64_t old = values_.load(w.addr);
        values_.store(w.addr, 1);
        if (old == 0)
            return false;
        spinFailed(w);
        if (op.kind == OpKind::SyncLockTTS)
            w.next(Step::LockTest, w.addr, AccessType::Read);
        return true;
      }

      case Step::BarrierArrive: {
        const std::uint64_t arrived = values_.load(w.addr);
        values_.store(w.addr, arrived + 1);
        if (arrived == w.barrier->parties - 1)
            w.next(Step::BarrierReset, w.addr, AccessType::Write);
        else
            w.next(Step::BarrierSpin, w.barrier->senseAddr,
                   AccessType::Read);
        return true;
      }

      case Step::BarrierReset:
        // The last arriver resets the counter and releases everyone.
        values_.store(w.addr, 0);
        w.next(Step::BarrierRelease, w.barrier->senseAddr,
               AccessType::Write);
        return true;

      case Step::BarrierRelease:
        values_.store(w.addr, w.mySense);
        return false;

      case Step::BarrierSpin:
        if (values_.load(w.addr) == w.mySense)
            return false;
        spinFailed(w);
        return true;

      case Step::FlagSpin:
        if (values_.load(w.addr) == op.value)
            return false;
        spinFailed(w);
        return true;
    }
    return false;
}

/**
 * A spin iteration failed: back off (rt::Backoff::pause).  With no
 * event pending, nothing else can ever run and change the word, so the
 * spin would hit in the cache forever without dispatching an event —
 * out of any budget's reach.  That trace is hostile or torn.
 */
void
Replayer::spinFailed(Worker &w)
{
    if (eq_.pending() == 0)
        throw ReplayError(
            "replay livelock: processor " + std::to_string(w.node()) +
            " spins on word " + std::to_string(w.addr) +
            " that no pending event can change (hostile or torn trace?)");
    w.compute(sim::cycles(w.backoff.cycles));
    w.backoff.cycles = std::min(w.backoff.cycles * 2, rt::Backoff::kCap);
}

stats::Profile
Replayer::run(const sim::RunBudget *budget)
{
    if (budget != nullptr)
        eq_.setBudget(*budget);

    // Spawn order as Runtime::spawn: worker i's start event is the i-th
    // event scheduled, so the same-tick FIFO at tick 0 equals
    // execution's.  The tasks own every frame still suspended when the
    // run stops early (budget, error).
    workers_.reserve(trace_.procs);
    std::vector<sim::Task<>> tasks;
    tasks.reserve(trace_.procs);
    unfinished_ = trace_.procs;
    for (std::uint32_t i = 0; i < trace_.procs; ++i) {
        workers_.emplace_back(eq_, static_cast<NodeId>(i));
        tasks.push_back(interpret(workers_.back(), trace_.streams[i]));
    }

    eq_.run();
    if (error_)
        std::rethrow_exception(error_);
    if (unfinished_ > 0)
        throw ReplayError(
            "replay deadlock: event queue drained with " +
            std::to_string(unfinished_) +
            " worker streams unfinished (torn or cross-machine-invalid "
            "trace?)");

    stats::Profile profile;
    profile.procs.reserve(trace_.procs);
    profile.procPhases.reserve(trace_.procs);
    for (const Worker &w : workers_) {
        profile.procs.push_back(w.stats);
        profile.procPhases.push_back(w.phases);
        profile.remoteLatency.merge(w.hist);
    }
    profile.machine = machine_->stats();
    profile.netModel = machine_->netModelName();
    profile.memModel = machine_->memModelName();
    profile.engineEvents = eq_.dispatched();
    return profile;
}

} // namespace

stats::Profile
replayTrace(const Trace &trace, const ReplaySpec &spec,
            const sim::RunBudget *budget)
{
    // absim-lint: D1 ok(wall-clock cost accounting for Profile.wallSeconds; never reaches simulated time or figure bytes)
    const auto wall_begin = std::chrono::steady_clock::now();

    if (!trace.replayable)
        throw ReplayError("trace is marked non-replayable (" +
                          trace.untraceableWhy + ")");
    if (trace.procs == 0 || trace.streams.size() != trace.procs)
        throw ReplayError("trace has no usable processor streams");
    if (!mach::specFor(spec.machine).runnable)
        throw ReplayError("machine '" +
                          std::string(mach::specFor(spec.machine).name) +
                          "' has no shared memory to replay");

    Replayer replayer(trace, spec);
    stats::Profile profile = replayer.run(budget);
    // absim-lint: D1 ok(closing wall-clock stamp for Profile.wallSeconds, same contract as execution's)
    const auto wall_end = std::chrono::steady_clock::now();
    profile.wallSeconds =
        std::chrono::duration<double>(wall_end - wall_begin).count();
    return profile;
}

} // namespace absim::trace
