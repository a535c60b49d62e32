#include "trace_replay/replay.hh"

#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "machines/registry.hh"
#include "runtime/shared.hh"
#include "runtime/sync.hh"
#include "sim/event_queue.hh"
#include "sim/task.hh"

namespace absim::trace {

namespace {

using mach::AccessTiming;
using mach::AccessType;
using net::NodeId;

/** One replayed processor: rt::ProcCore plus the interpreter's cursors
 *  into its encoded stream and into the op being replayed. */
class Worker final : public rt::ProcCore
{
  public:
    using ProcCore::ProcCore;

    /** Make @p addr / @p type the op's next access. */
    void
    next(mem::Addr addr, AccessType type)
    {
        this->addr = addr;
        this->type = type;
    }

    StreamReader stream; ///< Decodes each op as replay reaches it.
    std::uint64_t lastRmwOld = 0;
    mem::Addr addr = 0;
    AccessType type = AccessType::Read;
    rt::Spin spin; ///< The current sync op's protocol.
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

    std::uint64_t &
    load(mem::Addr a)
    {
        Slot &slot = probe(a);
        if (!slot.used)
            throw ReplayError(
                "trace: value word " + std::to_string(a) +
                " is not indexed (a hand-built trace must be encoded "
                "by trace::encodeStreams)");
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
    sim::Task<> interpret(Worker &w);
    bool begin(Worker &w, const Op &op);
    bool advance(Worker &w, const Op &op);

    const Trace &trace_;
    sim::EventQueue eq_;
    rt::SharedHeap heap_;
    std::unique_ptr<mach::ComposedMachine> machine_;
    ValueStore values_;
    std::unordered_map<mem::Addr, rt::BarrierWords> barriers_;
    std::vector<std::unique_ptr<Worker>> workers_;
    std::uint32_t unfinished_ = 0;
    std::exception_ptr error_;
};

void
Replayer::rebuildSetup()
{
    for (const SetupOp &op : trace_.setup) {
        switch (op.kind) {
          case SetupOp::Alloc: {
            // What no recording run can ask of the heap is a hostile
            // record: named here rather than thrown by the heap.
            if (op.a == 0 || op.c >= trace_.procs ||
                op.b > static_cast<std::uint64_t>(rt::Placement::OnNode))
                throw ReplayError("trace: malformed allocation record");
            const mem::Addr base = heap_.allocate(
                op.a, static_cast<rt::Placement>(op.b),
                static_cast<NodeId>(op.c));
            if (base != op.d)
                throw ReplayError(
                    "trace: allocator layout mismatch (trace recorded a "
                    "different heap discipline?)");
            break;
          }
          case SetupOp::Barrier:
            barriers_[op.a] = rt::BarrierWords{
                op.a, op.b, static_cast<std::uint32_t>(op.c), {}};
            break;
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
Replayer::interpret(Worker &w)
{
    try {
        co_await sim::Delay{eq_, 0}; // Process::start(0): the spawn event.
        Op op;
        while (!w.stream.atEnd()) {
            if (!w.stream.next(op))
                throw ReplayError("trace: malformed op in the stream of "
                                  "processor " +
                                  std::to_string(w.node()));
            if (!begin(w, op))
                continue;
            do {
                if (w.localTime() >= eq_.nextEventTime())
                    co_await w.syncToEngine();
                AccessTiming t;
                if (!machine_->probe(w, w.addr, w.type, t))
                    t = co_await machine_->miss(w, w.addr, w.type);
                w.chargeAccess(t);
            } while (advance(w, op));
        }
        w.recordFinish();
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
    switch (op.kind) {
      case OpKind::Compute:
        w.chargeCompute(op.value);
        return false;
      case OpKind::Phase:
        w.enterPhase(trace_.phaseNames[op.aux]);
        return false;
      case OpKind::Read:
        w.next(op.addr, AccessType::Read);
        return true;
      case OpKind::Write:
        w.next(op.addr, AccessType::Write);
        return true;
      case OpKind::DepWrite:
        // Slot re-derived from the *replayed* RMW result.
        w.next(op.addr + w.lastRmwOld * op.bytes, AccessType::Write);
        return true;
      case OpKind::RmwFetchAdd:
      case OpKind::RmwTestAndSet:
        w.next(op.addr, AccessType::Rmw);
        return true;
      case OpKind::SyncLockTS:
        w.spin = rt::Spin::lock(op.addr, rt::LockKind::TestAndSet);
        break;
      case OpKind::SyncLockTTS:
        w.spin = rt::Spin::lock(op.addr, rt::LockKind::TestTestAndSet);
        break;
      case OpKind::SyncBarrier: {
        const auto it = barriers_.find(op.addr);
        if (it == barriers_.end())
            throw ReplayError("trace: barrier arrival without a barrier "
                              "setup record");
        w.spin = rt::Spin::arrive(it->second, w.node());
        break;
      }
      case OpKind::SyncFlagWait:
        w.spin = rt::Spin::waitFor(op.addr, op.value);
        break;
      default:
        throw ReplayError("trace: unknown op kind");
    }
    w.next(w.spin.word(), w.spin.type());
    return true;
}

/** The access at the cursor completed: apply its value effect and aim
 *  the cursor at the op's next access.  @return true if one is due. */
bool
Replayer::advance(Worker &w, const Op &op)
{
    switch (op.kind) {
      case OpKind::Write:
      case OpKind::DepWrite:
        values_.store(w.addr, op.value);
        return false;
      case OpKind::RmwFetchAdd: {
        const std::uint64_t old = values_.load(w.addr);
        values_.store(w.addr, maskTo(old + op.value, op.bytes));
        w.lastRmwOld = old;
        return false;
      }
      case OpKind::RmwTestAndSet:
        w.lastRmwOld = values_.load(w.addr);
        values_.store(w.addr, 1);
        return false;
      case OpKind::Read:
        return false;
      default: // A sync op (compute and phase ops issue no access).
        break;
    }
    const rt::Spin::Next next = w.spin.complete(values_.load(w.addr));
    if (next == rt::Spin::Next::Failed && !w.spinFailed(w.spin))
        throw ReplayError(
            "replay livelock: processor " + std::to_string(w.node()) +
            " spins on word " + std::to_string(w.addr) +
            " that no pending event can change (hostile or torn trace?)");
    w.next(w.spin.word(), w.spin.type());
    return next != rt::Spin::Next::Done;
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
        workers_.push_back(
            std::make_unique<Worker>(eq_, static_cast<NodeId>(i)));
        workers_.back()->stream = StreamReader(trace_.streamBytes(i));
        tasks.push_back(interpret(*workers_.back()));
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

    return rt::collectProfile(workers_, *machine_, eq_);
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

    Replayer replayer(trace, spec);
    stats::Profile profile = replayer.run(budget);
    // absim-lint: D1 ok(closing wall-clock stamp for Profile.wallSeconds, same contract as execution's)
    const auto wall_end = std::chrono::steady_clock::now();
    profile.wallSeconds =
        std::chrono::duration<double>(wall_end - wall_begin).count();
    return profile;
}

} // namespace absim::trace
