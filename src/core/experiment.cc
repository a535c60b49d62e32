#include "core/experiment.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "check/check.hh"
#include "core/run_context.hh"
#include "machines/registry.hh"
#include "runtime/context.hh"
#include "runtime/shared.hh"
#include "sim/event_queue.hh"
#include "sim/trace.hh"
#include "trace_replay/recorder.hh"
#include "trace_replay/replay.hh"
#include "trace_replay/trace_cache.hh"

namespace absim::core {

namespace {

/** Added to params.seed on each retry (the 64-bit golden-ratio
 *  increment; any nonzero value works). */
constexpr std::uint64_t kRetrySeedPerturbation = 0x9e3779b97f4a7c15ull;

/** Tail bound of a failed attempt's captured trace. */
constexpr std::size_t kTraceExcerptBytes = 4096;

std::unique_ptr<mach::Machine>
makeMachine(const RunConfig &config, sim::EventQueue &eq,
            const mem::HomeMap &homes)
{
    // Registry-driven: any (network model x memory model) composition in
    // the table — including the off-diagonal quadrants — runs through
    // the same experiment machinery.
    return mach::makeMachine(config.machine, eq, config.topology,
                             config.procs, homes, config.gapPolicy,
                             config.cache, config.protocol);
}

/** Execution-driven run, optionally observed by a trace recorder. */
stats::Profile
executeOne(const RunConfig &config, const sim::RunBudget *budget,
           trace::Recorder *recorder)
{
    // absim-lint: D1 ok(wall-clock cost accounting for Profile.wallSeconds; never reaches simulated time or figure bytes)
    const auto wall_begin = std::chrono::steady_clock::now();

    // The run's ambient-state root: private check counters/options,
    // trace and fault injector, installed on this thread for the run's
    // duration so concurrent runs never share mutable simulator state.
    RunContext run_context;
    sim::EventQueue eq;
    if (budget != nullptr)
        eq.setBudget(*budget);
    rt::SharedHeap heap(config.procs);
    auto machine = makeMachine(config, eq, heap);
    rt::Runtime runtime(eq, *machine, config.procs);
    if (recorder != nullptr) {
        // Bound before setup: the recorder must see the allocations.
        heap.bindSink(recorder);
        runtime.bindSink(recorder);
    }
    auto app = apps::makeApp(config.app);

    app->setup(runtime, heap, config.params);
    runtime.spawn([&app](rt::Proc &p) { app->worker(p); });
    runtime.run();
    if (config.checkResult) {
        try {
            app->check();
        } catch (const std::exception &e) {
            // Tag validation failures so the safe driver can classify
            // them apart from engine or invariant errors.
            throw AppValidationError(e.what());
        }
    }

    stats::Profile profile = runtime.collect();
    // absim-lint: D1 ok(closing wall-clock stamp for Profile.wallSeconds, same contract as wall_begin above)
    const auto wall_end = std::chrono::steady_clock::now();
    profile.wallSeconds =
        std::chrono::duration<double>(wall_end - wall_begin).count();
    return profile;
}

std::string
tracePath(const RunConfig &config)
{
    return config.traceDir + "/" +
           trace::traceFileName(config.app, config.params, config.procs);
}

/** Execute the point with a recorder bound and persist its trace.
 *  Save failures (full disk, unwritable dir) degrade to a plain
 *  executed profile: the trace store is a cache, not a result. */
stats::Profile
executeAndRecord(const RunConfig &config, const sim::RunBudget *budget)
{
    trace::Recorder recorder(config.procs);
    stats::Profile profile = executeOne(config, budget, &recorder);
    trace::Trace recorded = recorder.take(config.app, config.params);
    try {
        std::filesystem::create_directories(config.traceDir);
        trace::saveTrace(recorded, tracePath(config));
    } catch (const std::exception &) {
        // Recording is best-effort; the executed profile stands.
    }
    return profile;
}

/**
 * The trace cache's bound, in encoded trace bytes.  A figure sweep
 * replays the trace of each processor count once per machine column;
 * the six FFT n=4096 traces of a P=1..32 sweep take about 3.6 MB
 * together, so a whole figure's traces stay cached and a sweep after
 * the first reloads none.
 */
constexpr std::size_t kTraceCacheBytes = std::size_t{64} << 20;

/** The trace cache every replayed run in the process reads through. */
std::shared_ptr<const trace::Trace>
loadTraceShared(const std::string &path)
{
    static trace::TraceCache cache(kTraceCacheBytes);
    return cache.load(path);
}

stats::Profile
runOneImpl(const RunConfig &config, const sim::RunBudget *budget)
{
    switch (config.mode) {
      case RunMode::Execute:
        return executeOne(config, budget, nullptr);
      case RunMode::Record:
        return executeAndRecord(config, budget);
      case RunMode::Replay:
        break;
    }

    // Replay with record-on-miss: a loadable, replayable trace replays;
    // a missing/torn/mismatched file executes and records for next
    // time; a trace marked non-replayable (message-passing runs)
    // permanently falls back to plain execution.
    const std::shared_ptr<const trace::Trace> recorded =
        loadTraceShared(tracePath(config));
    if (recorded == nullptr)
        return executeAndRecord(config, budget);
    if (!recorded->replayable)
        return executeOne(config, budget, nullptr);

    // Replay runs the very model code execution runs, and execution
    // checks it; the coherence checker would cost a replay 38-60% of
    // its time (docs/TRACING.md), so the replay context leaves it off.
    RunContext run_context;
    run_context.checkState().options.coherence = false;
    trace::ReplaySpec spec;
    spec.machine = config.machine;
    spec.topology = config.topology;
    spec.gapPolicy = config.gapPolicy;
    spec.cache = config.cache;
    spec.protocol = config.protocol;
    return trace::replayTrace(*recorded, spec, budget);
}

/** First line of a (possibly multi-line) exception message; the
 *  structured fields carry the rest. */
std::string
firstLine(const char *what)
{
    const std::string s(what);
    const auto newline = s.find('\n');
    return newline == std::string::npos ? s : s.substr(0, newline);
}

RunError
watchdogError(RunErrorKind kind, const sim::WatchdogError &e, int attempt)
{
    RunError err;
    err.kind = kind;
    err.message = firstLine(e.what());
    err.eventsDispatched = e.eventsDispatched();
    err.simTime = e.simTime();
    err.blockedFibers = e.blocked();
    err.attempts = attempt;
    return err;
}

RunError
plainError(RunErrorKind kind, const char *what, int attempt)
{
    RunError err;
    err.kind = kind;
    err.message = what;
    err.attempts = attempt;
    return err;
}

} // namespace

stats::Profile
runOne(const RunConfig &config)
{
    return runOneImpl(config, nullptr);
}

RunResult
runOneSafe(const RunConfig &config, const RunPolicy &policy)
{
    RunConfig attempt_config = config;
    const int attempts = std::max(1, policy.maxAttempts);
    for (int attempt = 1; attempt <= attempts; ++attempt) {
        // Invariant failures must surface as exceptions, not aborts.
        check::ScopedThrowOnFailure guard;
        // Per-attempt bounded trace capture: a fresh tail sink becomes
        // the thread's current trace, so the run's RunContext inherits
        // it and a failing attempt leaves its last events in the error.
        std::optional<sim::BoundedTraceSink> capture;
        std::optional<sim::Trace> capture_trace;
        std::optional<sim::ScopedTrace> capture_scope;
        if (policy.traceMask != 0) {
            capture.emplace(kTraceExcerptBytes);
            capture_trace.emplace();
            capture_trace->setMask(policy.traceMask);
            capture_trace->setSink(&capture->stream());
            capture_scope.emplace(*capture_trace);
        }
        bool retryable = false;
        RunError err;
        try {
            return runOneImpl(attempt_config, &policy.budget);
        } catch (const sim::DeadlockError &e) {
            err = watchdogError(RunErrorKind::Deadlock, e, attempt);
        } catch (const sim::BudgetExceededError &e) {
            err = watchdogError(RunErrorKind::BudgetExceeded, e, attempt);
        } catch (const check::CheckFailure &e) {
            err = plainError(RunErrorKind::CheckFailed, e.what(), attempt);
            retryable = true;
        } catch (const AppValidationError &e) {
            err = plainError(RunErrorKind::AppValidationFailed, e.what(),
                             attempt);
        } catch (const std::exception &e) {
            err = plainError(RunErrorKind::Panic, e.what(), attempt);
        }
        if (capture && !capture->empty())
            err.traceExcerpt = capture->excerpt();
        if (retryable && attempt < attempts) {
            // Degrade gracefully: re-roll the workload RNG and re-run
            // the point rather than losing the whole sweep to one
            // (possibly transient) failed invariant.
            attempt_config.params.seed += kRetrySeedPerturbation;
            continue;
        }
        return err;
    }
    // Unreachable: the loop always returns.
    return plainError(RunErrorKind::Panic, "retry loop fell through", 1);
}

namespace {

/** runOneSafe never throws for simulation failures, but a worker
 *  thread must also never die to an escaped std::bad_alloc or similar:
 *  anything that does escape is classified as a Panic. */
RunResult
runOneGuarded(const RunConfig &config, const RunPolicy &policy)
{
    try {
        return runOneSafe(config, policy);
    } catch (const std::exception &e) {
        return plainError(RunErrorKind::Panic, e.what(), 1);
    } catch (...) {
        return plainError(RunErrorKind::Panic,
                          "unknown exception escaped runOneSafe", 1);
    }
}

} // namespace

std::vector<RunResult>
runManySafe(const std::vector<RunConfig> &configs, const RunPolicy &policy,
            unsigned jobs, const RunManyCallback &onResult)
{
    const std::size_t n = configs.size();
    std::vector<std::optional<RunResult>> slots(n);
    std::mutex mutex;

    auto runTask = [&](std::size_t i) {
        RunResult result = runOneGuarded(configs[i], policy);
        const std::lock_guard<std::mutex> lock(mutex);
        slots[i].emplace(std::move(result));
        if (onResult)
            onResult(i, *slots[i]);
    };

    const std::size_t workers =
        std::min<std::size_t>(std::max(1u, jobs), std::max<std::size_t>(n, 1));
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            runTask(i);
    } else {
        // Fixed pool over an atomic work index: scheduling order is
        // irrelevant to the output because every result lands in its
        // own slot and each run is deterministic in its config.
        const check::Options ambient_options = check::options();
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (std::size_t w = 0; w < workers; ++w) {
            pool.emplace_back([&] {
                // Workers inherit the submitter's validator options;
                // everything else starts from the thread's clean
                // ambient state (no fault plan, default trace).
                check::State worker_state;
                worker_state.options = ambient_options;
                check::ScopedState scope(worker_state);
                for (;;) {
                    const std::size_t i =
                        next.fetch_add(1, std::memory_order_relaxed);
                    if (i >= n)
                        break;
                    runTask(i);
                }
            });
        }
        for (std::thread &t : pool)
            t.join();
    }

    std::vector<RunResult> results;
    results.reserve(n);
    for (auto &slot : slots)
        results.push_back(std::move(*slot));
    return results;
}

} // namespace absim::core
