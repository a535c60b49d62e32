/**
 * @file
 * The experiment driver: run one (application x machine x topology x P)
 * combination end to end and return its SPASM profile.  This is the core
 * of the reproduction — the apparatus the paper uses to compare the
 * three machine characterizations.
 *
 * Two entry points exist.  runOne() is the raw driver: any failure
 * (deadlock, budget, invariant, validation) escapes as an exception.
 * runOneSafe() is the resilient driver sweeps use: it installs a run
 * budget and the deadlock watchdog, classifies every failure into the
 * RunError taxonomy, and applies a policy-driven retry (a CheckFailed
 * point is re-run with a perturbed RNG seed) so one bad point degrades
 * gracefully instead of aborting a 20-figure sweep.
 */

#ifndef ABSIM_CORE_EXPERIMENT_HH
#define ABSIM_CORE_EXPERIMENT_HH

#include <array>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "apps/app.hh"
#include "core/run_error.hh"
#include "logp/gate.hh"
#include "machines/machine.hh"
#include "net/topology.hh"
#include "stats/overheads.hh"

namespace absim::core {

/**
 * How the driver obtains a run's reference stream.
 *
 * Execute is the paper's execution-driven mode.  Record executes and
 * additionally captures the shared-reference trace into traceDir.
 * Replay feeds a previously recorded trace through the configured
 * machine without executing the application — with record-on-miss: a
 * missing/torn/non-matching trace file makes the point execute (and
 * record), so a replay sweep is self-priming.  A trace is recorded per
 * (app, params, procs) point and is machine-independent; see
 * docs/TRACING.md.
 */
enum class RunMode : std::uint8_t
{
    Execute,
    Record,
    Replay,
};

/** Each RunMode's name, indexed by enumerator (the `mode` setting). */
inline constexpr std::array<std::string_view, 3> kRunModeNames = {
    "execute", "record", "replay"};

/** Everything needed to reproduce one simulation run. */
struct RunConfig
{
    std::string app = "fft";
    apps::AppParams params;
    mach::MachineKind machine = mach::MachineKind::Target;
    net::TopologyKind topology = net::TopologyKind::Full;
    std::uint32_t procs = 8;
    logp::GapPolicy gapPolicy = logp::GapPolicy::Single;
    mach::CacheConfig cache; ///< Cached machines' geometry.
    mach::ProtocolKind protocol =
        mach::ProtocolKind::Berkeley; ///< Target-machine protocol.
    bool checkResult = true; ///< Validate numerics after the run.
    RunMode mode = RunMode::Execute;
    std::string traceDir = "traces"; ///< Trace store for Record/Replay.
};

/** Thrown by runOne() when the application's result check fails. */
class AppValidationError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Build engine + heap + machine + runtime, run the application, validate
 * the result, and return its profile (with wall-clock cost filled in).
 *
 * @throws AppValidationError (a std::runtime_error) if the
 *         application's check fails; whatever else the run raises.
 */
stats::Profile runOne(const RunConfig &config);

/** How runOneSafe() guards and retries a run. */
struct RunPolicy
{
    /**
     * Budget installed on the engine for every attempt.  The default
     * enables only the deadlock watchdog: 10M dispatches without
     * sim-time progress is far beyond anything a healthy simulation
     * does (the clock normally advances every few hundred dispatches).
     */
    sim::RunBudget budget{/*maxEvents=*/0, /*maxSimTime=*/0,
                          /*maxWallSeconds=*/0.0,
                          /*stallDispatchLimit=*/10'000'000};

    /**
     * Total attempts (first run + retries).  Only a CheckFailed run is
     * retried, at once and with its workload seed perturbed; any other
     * failure is returned as it is.
     */
    int maxAttempts = 2;

    /**
     * Trace categories (sim::TraceCategory bits) captured per attempt
     * into a bounded (4 KiB) tail sink; on failure the excerpt lands in
     * RunError::traceExcerpt (and from there in failure manifests and
     * serve error responses).  0 (the default) captures nothing and
     * leaves the thread's ambient trace in charge.
     */
    std::uint32_t traceMask = 0;
};

using RunResult = Result<stats::Profile, RunError>;

/**
 * Resilient variant of runOne(): never throws for simulation-level
 * failures.  Installs policy.budget on the engine, classifies failures
 * into the RunError taxonomy (Deadlock, BudgetExceeded, CheckFailed,
 * AppValidationFailed, Panic) and retries per policy.  ABSIM_CHECK
 * failures are captured via a scoped throwing handler, so the
 * invariant checkers degrade to a structured error instead of
 * aborting the process.
 */
[[nodiscard]] RunResult runOneSafe(const RunConfig &config,
                                   const RunPolicy &policy = {});

/**
 * Completion callback of runManySafe: invoked exactly once per config
 * with its index and result.  Calls are serialized under an internal
 * mutex but arrive in *completion* order, not index order.
 */
using RunManyCallback =
    std::function<void(std::size_t index, const RunResult &result)>;

/**
 * Run every config under runOneSafe() on a fixed pool of @p jobs
 * threads and return the results in config order.
 *
 * Each run executes inside its own RunContext (installed by
 * runOneImpl), so concurrent runs share no mutable simulator state.
 * Results are deterministic and independent of @p jobs: the simulator
 * is seeded per config, and results are keyed by index, never by
 * completion order.  Worker threads inherit the calling thread's check
 * *options*; an armed fault plan deliberately does NOT propagate
 * across threads (fault state is per-thread — see fault::injector()),
 * so with jobs > 1 every run is fault-free unless its own thread arms
 * a plan.
 *
 * @param jobs  Worker threads; 0 or 1 runs serially on the calling
 *              thread (then an armed plan and the ambient trace apply,
 *              exactly as with plain runOneSafe).  Clamped to the
 *              number of configs.
 */
[[nodiscard]] std::vector<RunResult>
runManySafe(const std::vector<RunConfig> &configs,
            const RunPolicy &policy = {}, unsigned jobs = 1,
            const RunManyCallback &onResult = {});

} // namespace absim::core

#endif // ABSIM_CORE_EXPERIMENT_HH
