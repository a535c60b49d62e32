/**
 * @file
 * Trace replay: feed a recorded reference stream (see format.hh) through
 * any NetModel x MemModel composition of the registry and produce the
 * same stats::Profile the execution-driven simulator would —
 * bit-identical, because it runs the same code.
 *
 * Replay builds its machine with mach::makeMachine and its engine is a
 * sim::EventQueue, exactly as execution does.  Only the driver differs:
 * instead of application code on fiber processes, a coroutine per
 * processor interprets the recorded op stream, decoding each op from
 * the trace's encoded bytes as it reaches it and calling the machine's
 * probe() and, when it declines, awaiting its miss() task — the same two
 * phases ComposedMachine::access runs under a fiber.  Every blocking
 * point in the models is an awaitable sim primitive that schedules the
 * same single event for a coroutine as for a fiber (sim/task.hh), so by
 * induction over the dispatch order every event lands at the same
 * (tick, seq) as in execution.  Machine-dependent traffic (cache misses,
 * synchronization spins, RMW results) is regenerated from replayed state
 * rather than taken from the recording machine.  What replay skips is
 * what costs execution its wall time: the applications' native
 * computation and fiber switches; its run context also leaves the
 * coherence checker off (core::runOne; docs/TRACING.md has the
 * numbers).  Tests pin the equivalence per machine (including
 * Profile::engineEvents, the event-count fingerprint).
 *
 * Limits: message-passing runs are recorded as non-replayable (replay
 * falls back to execution), and a trace records one workload — apps
 * whose *reference pattern* (not just timing) depends on the machine
 * would diverge; docs/TRACING.md discusses why the paper's suite is
 * safe (the one machine-dependent idiom, writes indexed by fetch&add
 * results, is re-derived at replay via DepWrite).
 */

#ifndef ABSIM_TRACE_REPLAY_REPLAY_HH
#define ABSIM_TRACE_REPLAY_REPLAY_HH

#include <stdexcept>

#include "logp/gate.hh"
#include "machines/machine.hh"
#include "net/topology.hh"
#include "sim/watchdog.hh"
#include "stats/overheads.hh"
#include "trace_replay/format.hh"

namespace absim::trace {

/** The machine half of a core::RunConfig (the workload half is the
 *  trace itself). */
struct ReplaySpec
{
    mach::MachineKind machine = mach::MachineKind::Target;
    net::TopologyKind topology = net::TopologyKind::Full;
    logp::GapPolicy gapPolicy = logp::GapPolicy::Single;
    mach::CacheConfig cache;
    mach::ProtocolKind protocol = mach::ProtocolKind::Berkeley;
};

/** A trace that cannot be replayed (wrong shape, non-replayable flag,
 *  layout mismatch) or a replay that deadlocked or livelocked. */
class ReplayError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Replay @p trace on the machine described by @p spec, under @p budget
 * when one is given (as execution installs it on its engine).
 *
 * @return The profile the execution-driven run would produce (all
 *         simulated quantities identical; wallSeconds is this replay's
 *         own host cost).
 * @throws ReplayError as above.
 * @throws sim::BudgetExceededError / sim::DeadlockError if the budget
 *         trips, at the same dispatch count as execution.
 */
stats::Profile replayTrace(const Trace &trace, const ReplaySpec &spec,
                           const sim::RunBudget *budget = nullptr);

} // namespace absim::trace

#endif // ABSIM_TRACE_REPLAY_REPLAY_HH
