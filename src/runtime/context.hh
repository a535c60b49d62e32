/**
 * @file
 * Per-processor execution context and the Runtime harness.
 *
 * A Proc is what application code sees: it charges computation, issues
 * simulated shared-memory accesses, and carries the SPASM overhead
 * counters.  Each Proc runs on its own simulated process (fiber) and keeps
 * a *local clock* that runs ahead of the global engine between shared
 * events — the direct-execution trick that makes execution-driven
 * simulation fast.  Before any access, the Proc yields to the engine if
 * its local clock has passed the next pending global event, so all shared
 * accesses still happen in exact global time order (sequential
 * consistency at access granularity).
 */

#ifndef ABSIM_RUNTIME_CONTEXT_HH
#define ABSIM_RUNTIME_CONTEXT_HH

#include <algorithm>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "machines/machine.hh"
#include "runtime/ref_sink.hh"
#include "sim/process.hh"
#include "stats/histogram.hh"
#include "stats/overheads.hh"

namespace absim::rt {

class Runtime;
class Spin;

/**
 * One simulated processor's clock and accounts, for both drivers:
 * execution's Proc (application code on a fiber) and trace replay's
 * worker (a recorded op stream on a coroutine).
 */
class ProcCore : public mach::MemClient
{
  public:
    ProcCore(sim::EventQueue &eq, net::NodeId id) : MemClient(id), eq_(eq) {}

    sim::Tick localTime() const final { return localTime_; }
    sim::Delay syncToEngine() override { return sim::Delay{eq_, localTime_}; }

    const stats::ProcStats &stats() const { return stats_; }

    /** Distribution of networked-access completion times (ns). */
    const stats::Histogram &remoteLatencyHistogram() const
    {
        return remoteHist_;
    }

    /** Per-phase breakdown in first-use order (finalized at exit). */
    const std::vector<stats::PhaseStats> &phases() const
    {
        return phases_;
    }

    /** Charge @p ns of computation. */
    void
    chargeCompute(sim::Duration ns)
    {
        localTime_ += ns;
        stats_.busy += ns;
    }

    /** Fold one completed access's timing in.  If the machine blocked,
     *  the engine clock carries the completion time, else the local
     *  clock does; the trailing local cost is added on top. */
    void
    chargeAccess(const mach::AccessTiming &t)
    {
        localTime_ = std::max(localTime_, eq_.now()) + t.busy;
        stats_.busy += t.busy;
        stats_.latency += t.latency;
        stats_.contention += t.contention;
        ++stats_.accesses;
        if (t.networked) {
            ++stats_.networkAccesses;
            remoteHist_.record(t.latency + t.contention);
        }
    }

    /** Attribute the overhead accrued so far to the current phase and
     *  make @p name the current one (repeated names accumulate). */
    void
    enterPhase(const std::string &name)
    {
        stats::flushPhase(stats_, phaseSnapshot_, currentPhase_, phases_);
        currentPhase_ = name;
    }

    /**
     * A poll of @p spin failed: charge its next backoff pause.
     * @return false, charging nothing, if no event is pending: nothing
     *         can then change the word, and the spin would hit in the
     *         cache forever, out of any budget's reach (a livelock).
     */
    [[nodiscard]] bool spinFailed(Spin &spin);

    /** Stamp the finish time and close the last phase. */
    void
    recordFinish()
    {
        stats_.finishTime = localTime_;
        enterPhase(currentPhase_);
    }

  protected:
    sim::EventQueue &eq_;
    sim::Tick localTime_ = 0;
    stats::ProcStats stats_;

  private:
    stats::ProcStats phaseSnapshot_;
    stats::Histogram remoteHist_;
    std::string currentPhase_ = "main";
    std::vector<stats::PhaseStats> phases_;
};

/** The run profile from the processors' accounts (@p procs: pointers,
 *  in node order), the machine's counters and the engine's. */
template <typename Procs>
stats::Profile
collectProfile(const Procs &procs, const mach::Machine &machine,
               const sim::EventQueue &eq)
{
    stats::Profile profile;
    for (const auto &proc : procs) {
        profile.procs.push_back(proc->stats());
        profile.procPhases.push_back(proc->phases());
        profile.remoteLatency.merge(proc->remoteLatencyHistogram());
    }
    profile.machine = machine.stats();
    profile.netModel = machine.netModelName();
    profile.memModel = machine.memModelName();
    profile.engineEvents = eq.dispatched();
    return profile;
}

/**
 * One simulated processor, as seen by application code.
 */
class Proc final : public ProcCore
{
  public:
    Proc(Runtime &rt, net::NodeId id);

    sim::Delay syncToEngine() override;

    /** Block this processor's process until the engine clock reaches
     *  its local clock (syncToEngine() awaited in place). */
    void syncNow();

    /** Charge @p n processor cycles of computation. */
    void compute(std::uint64_t n);

    /** Charge @p ns nanoseconds of computation. */
    void computeNs(sim::Duration ns);

    /** Simulated shared-memory access of @p bytes at @p addr. */
    void access(mem::Addr addr, mach::AccessType type, std::uint32_t bytes);

    void
    memRead(mem::Addr addr, std::uint32_t bytes)
    {
        access(addr, mach::AccessType::Read, bytes);
    }

    void
    memWrite(mem::Addr addr, std::uint32_t bytes)
    {
        access(addr, mach::AccessType::Write, bytes);
    }

    /** Simulated atomic read-modify-write. */
    void
    memRmw(mem::Addr addr, std::uint32_t bytes)
    {
        access(addr, mach::AccessType::Rmw, bytes);
    }

    /**
     * Mark the start of a named application phase (SPASM bottleneck
     * isolation).  Until the next beginPhase()/worker exit, all overhead
     * accrues to @p name; repeated names accumulate.  Before the first
     * beginPhase() everything lands in an implicit "main" phase.
     */
    void beginPhase(const std::string &name);

    Runtime &runtime() { return rt_; }

    /** Total processors in this run (convenience for workers). */
    std::uint32_t procs() const;

    /** @name Harness plumbing (used by Runtime). */
    /// @{
    void bindProcess(sim::Process *p) { process_ = p; }

    /** The reference-stream observer, or null (the common case). */
    RefSink *sink() const { return sink_; }

    void bindSink(RefSink *sink) { sink_ = sink; }
    /// @}

    /** @name Message-passing support (used by msg::MsgWorld).
     *
     * The shared-memory path never touches these: its blocking is
     * machine-mediated.  The message layer blocks processors directly
     * (suspend/wake) and accounts the elapsed engine time itself.
     */
    /// @{
    /** The underlying simulated process (for suspend/wake). */
    sim::Process *process() { return process_; }

    /**
     * Jump the local clock to the engine clock, attributing the elapsed
     * time to the given buckets.  The buckets must sum to exactly the
     * elapsed time (the profile invariant is asserted in tests).
     */
    void absorbEngineTime(sim::Duration latency, sim::Duration contention,
                          sim::Duration wait);
    /// @}

  private:
    void maybeYield();

    Runtime &rt_;
    sim::Process *process_ = nullptr;
    RefSink *sink_ = nullptr;

    /** Set by syncToEngine(); reset at the top of every access so the
     *  conservation checker knows whether the machine blocked. */
    bool syncedThisAccess_ = false;
};

/**
 * Glue between an engine, a machine and P processors; owns the worker
 * processes and collects the run profile.
 */
class Runtime
{
  public:
    Runtime(sim::EventQueue &eq, mach::Machine &machine, std::uint32_t p);
    ~Runtime();

    Runtime(const Runtime &) = delete;
    Runtime &operator=(const Runtime &) = delete;

    /**
     * Create the P worker processes, each running @p body on its Proc.
     * Call once, then run().
     */
    void spawn(std::function<void(Proc &)> body);

    /**
     * Install a reference-stream observer on every processor spawn()
     * creates (the trace recorder).  Call before spawn(); null (the
     * default) records nothing.
     */
    void bindSink(RefSink *sink) { sink_ = sink; }

    /**
     * Run the simulation to completion.
     * @throws whatever a worker threw (captured on the worker's fiber,
     *         rethrown here on the scheduler stack).
     * @throws sim::DeadlockError if the queue drains with workers
     *         still blocked (with a dump of what each waits on).
     * @throws sim::BudgetExceededError / sim::DeadlockError from the
     *         engine if a RunBudget installed on it trips.
     */
    void run();

    /** Gather the SPASM profile after run(). */
    stats::Profile collect() const
    {
        return collectProfile(procs_, machine_, eq_);
    }

    sim::EventQueue &engine() { return eq_; }
    mach::Machine &machine() { return machine_; }
    std::uint32_t procs() const { return p_; }
    Proc &proc(std::uint32_t i) { return *procs_[i]; }

  private:
    sim::EventQueue &eq_;
    mach::Machine &machine_;
    std::uint32_t p_;
    RefSink *sink_ = nullptr;
    std::vector<std::unique_ptr<Proc>> procs_;
    std::vector<std::unique_ptr<sim::Process>> processes_;
    std::exception_ptr workerError_;
};

} // namespace absim::rt

#endif // ABSIM_RUNTIME_CONTEXT_HH
