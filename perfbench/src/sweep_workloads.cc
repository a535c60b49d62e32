/**
 * @file
 * The figure-sweep workloads: a whole figure sweep, executed or
 * replayed, run as the figure binaries run it (jobs = 1, result check
 * and checkers at their defaults) and timed from outside, cell by cell.
 *
 * The traced pass composes each executed cell from the public pieces
 * core::runOne uses (RunContext, SharedHeap, makeMachine, Runtime,
 * makeApp) with a span around every call, and each replayed cell from
 * trace::loadTrace + trace::replayTrace; it must reproduce the
 * untraced figure exactly, and its first pass checks every cell's
 * Profile against core::runOne's.
 */

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <sstream>

#include "check/check.hh"
#include "core/env.hh"
#include "core/experiment.hh"
#include "core/figures.hh"
#include "core/run_context.hh"
#include "machines/registry.hh"
#include "process.hh"
#include "runtime/context.hh"
#include "runtime/shared.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "trace_replay/format.hh"
#include "trace_replay/replay.hh"
#include "workloads.hh"

namespace absim::perfbench {

const FigureSpec kIsFull = {"Figure 14: IS on Full: Execution Time", "is",
                            16384, net::TopologyKind::Full, false,
                            744271.64999999991};
const FigureSpec kFftMesh = {"FFT on Mesh: Execution Time (all stacks)",
                             "fft", 4096, net::TopologyKind::Mesh2D, true,
                             850305.4800000001};

Grid::Grid(const FigureSpec &f, std::uint64_t seed) : figure(f)
{
    base.app = figure.app;
    base.params.n = core::envUint("ABSIM_BENCH_SWEEP_SIZE", figure.size, 256);
    base.params.seed = seed;
    base.topology = figure.topology;
    const std::uint64_t maxProcs =
        core::envUint("ABSIM_BENCH_SWEEP_PROCS", 32, 1, 1u << 10);
    for (const std::uint32_t p : core::defaultProcCounts())
        if (p <= maxProcs)
            procs.push_back(p);
    machines = figure.allStacks ? mach::allQuadrants()
                                : mach::defaultFigureMachines();
}

core::RunConfig
Grid::cell(std::size_t index) const
{
    core::RunConfig config = base;
    config.procs = procs[index / machines.size()];
    config.machine = machines[index % machines.size()];
    return config;
}

bool
Grid::fullScale() const
{
    return base.params.n == figure.size && procs == core::defaultProcCounts();
}

std::uint64_t
inputSeed(std::uint64_t seed, std::size_t k)
{
    sim::Rng rng(seed);
    std::uint64_t drawn = seed;
    for (std::size_t i = 0; i < k; ++i)
        drawn = rng.next() >> 16;
    return drawn;
}

double
valueSum(const std::vector<double> &values)
{
    double sum = 0.0;
    for (const double v : values)
        sum += v;
    return sum;
}

namespace {

namespace fs = std::filesystem;

struct SweepWorkload
{
    const char *name;
    const FigureSpec &figure;
    bool replay;
};

const SweepWorkload kSweeps[] = {
    {"is_full_exec", kIsFull, false},
    {"fft_mesh_exec", kFftMesh, false},
    {"fft_mesh_replay", kFftMesh, true},
};

/**
 * Inputs a sweep workload sets up (see inputSeed).  A sweep's peak
 * memory depends on its input (IS's by up to 14% between seeds), so a
 * peak taken over several inputs reads about the same from one --seed
 * to the next.  A cold sweep's time swings by a fifth from one process
 * to the next, so setup_s is the median of as many.
 */
constexpr std::size_t kInputs = 5;
const SweepWorkload *
findSweep(const std::string &name)
{
    for (const SweepWorkload &s : kSweeps)
        if (name == s.name)
            return &s;
    return nullptr;
}

/** What one sweep produced. */
struct SweepRun
{
    std::vector<double> values;      ///< The figure, point-major.
    std::vector<double> cellSeconds; ///< Each cell's wall time, by cell.
    double seconds = 0.0;            ///< The whole sweep's wall time.
    std::vector<std::string> failures;
};

/**
 * Sweep the whole figure the way core::sweepFigureSafe does for the
 * figure binaries (jobs = 1, default RunPolicy, no journal): every cell
 * through core::runManySafe, in point-major order.  Calling runManySafe
 * directly lets its completion callback time each cell; the figure
 * assembly it skips is bookkeeping.
 */
SweepRun
runSweep(const Grid &grid, core::RunMode mode, const std::string &store)
{
    std::vector<core::RunConfig> configs;
    for (std::size_t c = 0; c < grid.cells(); ++c) {
        configs.push_back(grid.cell(c));
        configs.back().mode = mode;
        configs.back().traceDir = store;
    }
    SweepRun run;
    run.values.assign(configs.size(), 0.0);
    run.cellSeconds.assign(configs.size(), 0.0);
    const double begin = wallNow();
    double last = begin;
    (void)core::runManySafe(
        configs, core::RunPolicy{}, 1,
        [&](std::size_t i, const core::RunResult &result) {
            const double now = wallNow();
            run.cellSeconds[i] = now - last;
            last = now;
            if (result.ok()) {
                run.values[i] =
                    core::metricValue(result.value(), core::Metric::ExecTime);
                return;
            }
            run.failures.push_back(
                "cell procs=" + std::to_string(configs[i].procs) +
                " machine=" + mach::specFor(configs[i].machine).name +
                " failed: " + core::toString(result.error().kind) + ": " +
                result.error().message);
        });
    run.seconds = wallNow() - begin;
    return run;
}

/** Count a sweep's cells and failures into @p result; false if any
 *  cell failed. */
bool
tally(const SweepRun &sweep, Result &result)
{
    result.attempted += sweep.values.size();
    result.failed += sweep.failures.size();
    for (const std::string &f : sweep.failures)
        result.fail(f);
    return sweep.failures.empty();
}

void
expectSameFigure(const std::vector<double> &reference,
                 const std::vector<double> &values, const std::string &what,
                 Result &result)
{
    if (values == reference)
        return;
    std::ostringstream oss;
    oss << "simulated results changed: " << what << " value_sum_us = "
        << formatExact(valueSum(values)) << ", reference "
        << formatExact(valueSum(reference));
    result.fail(oss.str());
}

/** The golden check: at the default seed and full scale, or against
 *  the test-only expected sum. */
void
checkGolden(const Options &options, const Grid &grid,
            const std::vector<double> &values, Result &result)
{
    double expected = 0.0;
    if (options.expectValueSum)
        expected = *options.expectValueSum;
    else if (options.seed == Options{}.seed && grid.fullScale())
        expected = grid.figure.goldenValueSum;
    else
        return;
    const double sum = valueSum(values);
    if (sum != expected)
        result.fail("simulated results changed: " + options.workload +
                    " value_sum_us = " + formatExact(sum) + ", expected " +
                    formatExact(expected));
}

/** Probe output: "probe <seconds> <value>...". */
bool
parseProbe(const std::string &out, double &seconds,
           std::vector<double> &values)
{
    std::istringstream in(out);
    std::string word;
    if (!(in >> word) || word != "probe" || !(in >> word) ||
        !core::parseDouble(word.c_str(), seconds))
        return false;
    values.clear();
    while (in >> word) {
        double v = 0.0;
        if (!core::parseDouble(word.c_str(), v))
            return false;
        values.push_back(v);
    }
    return true;
}

/** One cold sweep at input @p seed in a fresh process (cold caches,
 *  cold allocator, empty fiber-stack pool).  The scale knobs reach it
 *  through the environment. */
bool
runProbeChild(const Options &options, std::uint64_t seed,
              const std::string &store, double &seconds,
              std::vector<double> &values, double &peakRss)
{
    std::vector<std::string> argv = {
        options.self, "--probe",          "--workload", options.workload,
        "--seed",     std::to_string(seed), "--out-dir",  options.outDir};
    if (!store.empty()) {
        argv.push_back("--probe-store");
        argv.push_back(store);
    }
    Child child;
    if (!child.start(argv, true, options.outDir + "/probe.log"))
        return false;
    const std::string out = child.readOut();
    if (child.wait(120.0) != 0)
        return false;
    peakRss = child.reapedPeakRssMb();
    return parseProbe(out, seconds, values);
}

/** A fresh, empty trace store. */
std::string
emptyStore(const Options &options)
{
    const std::string store = options.outDir + "/traces";
    fs::remove_all(store);
    fs::create_directories(store);
    return store;
}

// ------------------------------------------------------------ traced pass

/**
 * Forwarding machine that times the calls the memory system answers
 * without the network.  A networked access blocks the calling fiber
 * while other processors run, so its wall time is not the machine's:
 * only its count is kept.  One local call in 16 is timed, which keeps
 * the clock reads from dominating the traced pass.
 */
class TimedMachine final : public mach::Machine
{
  public:
    TimedMachine(mach::Machine &inner, const mem::HomeMap &homes)
        : Machine(inner.nodes(), homes), inner_(inner)
    {
    }

    mach::AccessTiming
    access(mach::MemClient &client, mem::Addr addr, mach::AccessType type,
           std::uint32_t bytes) override
    {
        if ((calls_++ & 15) != 0)
            return inner_.access(client, addr, type, bytes);
        const double begin = wallNow();
        const mach::AccessTiming timing =
            inner_.access(client, addr, type, bytes);
        if (!timing.networked) {
            localSeconds_ += wallNow() - begin;
            ++localTimed_;
        }
        return timing;
    }

    mach::MachineKind kind() const override { return inner_.kind(); }
    void checkInvariants() const override { inner_.checkInvariants(); }
    const char *netModelName() const override
    {
        return inner_.netModelName();
    }
    const char *memModelName() const override
    {
        return inner_.memModelName();
    }

    /** Runtime::collect reads the stats of the machine it was given. */
    void syncStats() { stats_ = inner_.stats(); }

    double localSeconds() const { return localSeconds_; }
    std::uint64_t localTimed() const { return localTimed_; }

  private:
    mach::Machine &inner_;
    std::uint64_t calls_ = 0;
    double localSeconds_ = 0.0;
    std::uint64_t localTimed_ = 0;
};

/** Counts the traced pass adds up across cells. */
struct LayerCounts
{
    double events = 0.0;
    double accesses = 0.0;
    double simulatedAccesses = 0.0;
    double networkAccesses = 0.0;
    double messages = 0.0;
    double localSeconds = 0.0;
    double localTimed = 0.0;
    double traceBytes = 0.0;
    double residentBytes = 0.0;

    /** Machine counts describe the workload either way; the event and
     *  access counts are the kernel's and the runtime's work, so only
     *  an executed cell adds them. */
    void
    addProfile(const stats::Profile &p, bool executed)
    {
        messages += static_cast<double>(p.machine.messages);
        std::uint64_t procAccesses = 0;
        for (const stats::ProcStats &s : p.procs) {
            procAccesses += s.accesses;
            networkAccesses += static_cast<double>(s.networkAccesses);
        }
        simulatedAccesses += static_cast<double>(procAccesses);
        if (executed) {
            events += static_cast<double>(p.engineEvents);
            accesses += static_cast<double>(procAccesses);
        }
    }
};

/** One executed cell, composed exactly as core::runOne composes it
 *  under runOneSafe's default policy, with a span per layer call. */
stats::Profile
composedRun(const core::RunConfig &config, SpanLog &log, std::int64_t cell,
            LayerCounts &counts)
{
    check::ScopedThrowOnFailure throwOnFailure;
    core::RunContext runContext;
    sim::EventQueue eq;
    eq.setBudget(core::RunPolicy{}.budget);
    rt::SharedHeap heap(config.procs);
    std::unique_ptr<mach::Machine> inner;
    {
        SpanLog::Scope span(log, "machines.build", cell);
        inner = mach::makeMachine(config.machine, eq, config.topology,
                                  config.procs, heap, config.gapPolicy,
                                  config.cache, config.protocol);
    }
    TimedMachine machine(*inner, heap);
    rt::Runtime runtime(eq, machine, config.procs);
    auto app = apps::makeApp(config.app);
    {
        SpanLog::Scope span(log, "apps.setup", cell);
        app->setup(runtime, heap, config.params);
    }
    runtime.spawn([&app](rt::Proc &p) { app->worker(p); });
    {
        SpanLog::Scope span(log, "runtime.run", cell);
        runtime.run();
    }
    if (config.checkResult) {
        SpanLog::Scope span(log, "apps.check", cell);
        app->check();
    }
    machine.syncStats();
    counts.localSeconds += machine.localSeconds();
    counts.localTimed += static_cast<double>(machine.localTimed());
    return runtime.collect();
}

/** Σ Runtime::run seconds of one executed cell with the invariant
 *  checkers switched off (for check.share). */
double
uncheckedRunSeconds(const core::RunConfig &config)
{
    const check::Options saved = check::options();
    check::options().coherence = false;
    check::options().causality = false;
    check::options().conservation = false;
    SpanLog scratch;
    LayerCounts ignored;
    (void)composedRun(config, scratch, 0, ignored);
    check::options() = saved;
    const std::vector<double> run = scratch.durations("runtime.run");
    return run.empty() ? 0.0 : run.front();
}

bool
sameHistogram(const stats::Histogram &a, const stats::Histogram &b)
{
    if (a.samples() != b.samples() || a.max() != b.max() ||
        a.mean() != b.mean())
        return false;
    for (std::uint32_t i = 0; i < stats::Histogram::kBuckets; ++i)
        if (a.count(i) != b.count(i))
            return false;
    return true;
}

/** Every simulated quantity of two profiles (host time excluded). */
bool
sameProfile(const stats::Profile &a, const stats::Profile &b)
{
    if (a.procs.size() != b.procs.size() ||
        a.procPhases.size() != b.procPhases.size() ||
        a.engineEvents != b.engineEvents || a.netModel != b.netModel ||
        a.memModel != b.memModel ||
        !sameHistogram(a.remoteLatency, b.remoteLatency))
        return false;
    for (std::size_t i = 0; i < a.procs.size(); ++i) {
        const stats::ProcStats &x = a.procs[i];
        const stats::ProcStats &y = b.procs[i];
        if (x.busy != y.busy || x.latency != y.latency ||
            x.contention != y.contention || x.wait != y.wait ||
            x.accesses != y.accesses ||
            x.networkAccesses != y.networkAccesses ||
            x.finishTime != y.finishTime)
            return false;
    }
    for (std::size_t i = 0; i < a.procPhases.size(); ++i) {
        if (a.procPhases[i].size() != b.procPhases[i].size())
            return false;
        for (std::size_t j = 0; j < a.procPhases[i].size(); ++j) {
            const stats::PhaseStats &x = a.procPhases[i][j];
            const stats::PhaseStats &y = b.procPhases[i][j];
            if (x.name != y.name || x.busy != y.busy ||
                x.latency != y.latency || x.contention != y.contention ||
                x.wait != y.wait)
                return false;
        }
    }
    const mach::MachineStats &x = a.machine;
    const mach::MachineStats &y = b.machine;
    return x.accesses == y.accesses && x.cacheHits == y.cacheHits &&
           x.localMem == y.localMem &&
           x.networkAccesses == y.networkAccesses &&
           x.messages == y.messages && x.readMisses == y.readMisses &&
           x.writeMisses == y.writeMisses && x.upgrades == y.upgrades &&
           x.invalidations == y.invalidations &&
           x.writebacks == y.writebacks && x.memTime == y.memTime;
}

/** One traced pass over every cell; returns the figure's values. */
std::vector<double>
tracedPass(const Grid &grid, bool replay, const std::string &store,
           SpanLog &log, LayerCounts &counts)
{
    std::vector<double> values(grid.cells(), 0.0);
    SpanLog::Scope passSpan(log, "core.sweep");
    if (!replay) {
        for (std::size_t c = 0; c < grid.cells(); ++c) {
            SpanLog::Scope cellSpan(log, "core.cell",
                                    static_cast<std::int64_t>(c));
            const stats::Profile p = composedRun(
                grid.cell(c), log, static_cast<std::int64_t>(c), counts);
            counts.addProfile(p, true);
            values[c] = core::metricValue(p, core::Metric::ExecTime);
        }
        return values;
    }
    const std::size_t stacks = grid.machines.size();
    for (std::size_t point = 0; point < grid.procs.size(); ++point) {
        const std::string path =
            store + "/" +
            trace::traceFileName(grid.base.app, grid.base.params,
                                 grid.procs[point]);
        trace::Trace recorded;
        bool loaded = false;
        {
            SpanLog::Scope span(log, "trace_replay.load",
                                static_cast<std::int64_t>(point));
            loaded = trace::loadTrace(path, recorded);
        }
        if (!loaded)
            throw std::runtime_error("cannot load trace " + path);
        std::error_code ec;
        counts.traceBytes += static_cast<double>(fs::file_size(path, ec));
        counts.residentBytes = std::max(
            counts.residentBytes,
            static_cast<double>(recorded.opCount() * sizeof(trace::Op) +
                                recorded.setup.size() *
                                    sizeof(trace::SetupOp)));
        for (std::size_t m = 0; m < stacks; ++m) {
            const std::size_t c = point * stacks + m;
            const core::RunConfig config = grid.cell(c);
            SpanLog::Scope cellSpan(log, "core.cell",
                                    static_cast<std::int64_t>(c));
            check::ScopedThrowOnFailure throwOnFailure;
            trace::ReplaySpec spec;
            spec.machine = config.machine;
            spec.topology = config.topology;
            spec.gapPolicy = config.gapPolicy;
            spec.cache = config.cache;
            spec.protocol = config.protocol;
            stats::Profile p;
            {
                SpanLog::Scope span(log, "trace_replay.replay",
                                    static_cast<std::int64_t>(c));
                core::RunContext runContext;
                p = trace::replayTrace(recorded, spec);
            }
            counts.addProfile(p, false);
            values[c] = core::metricValue(p, core::Metric::ExecTime);
        }
    }
    return values;
}

/** First traced pass only: each composed cell's Profile must equal
 *  core::runOne's, and the cell runs once more with the checkers off. */
void
verifyComposition(const Grid &grid, Result &result, double &checkedRun,
                  double &uncheckedRun)
{
    for (std::size_t c = 0; c < grid.cells(); ++c) {
        const core::RunConfig config = grid.cell(c);
        SpanLog scratch;
        LayerCounts ignored;
        const stats::Profile composed =
            composedRun(config, scratch, 0, ignored);
        if (!sameProfile(composed, core::runOne(config)))
            result.fail("simulated results changed: the traced cell " +
                        std::to_string(c) +
                        " Profile differs from core::runOne's");
        checkedRun += scratch.durations("runtime.run").front();
        uncheckedRun += uncheckedRunSeconds(config);
    }
}

/** The traced run, at input --seed only: set-up in this process, then
 *  an untraced and a traced pass in turn for --seconds. */
Result
tracedWorkload(const Options &options, const SweepWorkload &workload)
{
    const Grid grid(workload.figure, options.seed);
    Result result;
    std::string store;
    core::RunMode mode = core::RunMode::Execute;
    if (workload.replay) {
        store = emptyStore(options);
        mode = core::RunMode::Replay;
    }
    // Set-up: the cold (record-on-miss) sweep gives the reference.
    const SweepRun first = runSweep(grid, mode, store);
    if (!tally(first, result))
        return result;
    const std::vector<double> &reference = first.values;
    checkGolden(options, grid, reference, result);

    SpanLog log;
    LayerCounts counts;
    std::vector<double> untraced;
    std::vector<double> traced;
    double checkedRun = 0.0;
    double uncheckedRun = 0.0;
    const double begin = wallNow();
    do {
        const SweepRun plain = runSweep(grid, mode, store);
        untraced.push_back(plain.seconds);
        if (!tally(plain, result))
            break;
        expectSameFigure(reference, plain.values, "untraced pass", result);

        const double t = wallNow();
        std::vector<double> values;
        try {
            values = tracedPass(grid, workload.replay, store, log, counts);
        } catch (const std::exception &e) {
            result.fail(std::string("traced pass failed: ") + e.what());
            ++result.failed;
            break;
        }
        traced.push_back(wallNow() - t);
        result.attempted += grid.cells();
        expectSameFigure(reference, values, "traced pass", result);
        if (traced.size() == 1 && !workload.replay)
            verifyComposition(grid, result, checkedRun, uncheckedRun);
    } while (wallNow() - begin < options.seconds);

    const double passes = static_cast<double>(std::max<std::size_t>(
        traced.size(), 1));
    const std::map<std::string, SpanLog::Totals> totals = log.totals();
    const auto total = [&](const char *name) {
        const auto it = totals.find(name);
        return it == totals.end() ? 0.0 : it->second.totalSeconds / passes;
    };
    const double runS = total("runtime.run");
    const double replayS = total("trace_replay.replay");
    const double loadS = total("trace_replay.load");
    const double events = counts.events / passes;
    result.add("sim.events", "count", events);
    result.add("sim.mev_per_s", "Mev/s",
               runS > 0.0 ? events / runS / 1e6 : 0.0);
    result.add("runtime.run_s", "s", runS);
    result.add("runtime.accesses", "count", counts.accesses / passes);
    result.add("apps.setup_s", "s", total("apps.setup"));
    result.add("apps.check_s", "s", total("apps.check"));
    result.add("machines.build_s", "s", total("machines.build"));
    result.add("machines.local_access_ns", "ns",
               counts.localTimed > 0.0
                   ? counts.localSeconds / counts.localTimed * 1e9
                   : 0.0);
    result.add("machines.messages", "count", counts.messages / passes);
    result.add("machines.networked_frac", "frac",
               counts.simulatedAccesses > 0.0
                   ? counts.networkAccesses / counts.simulatedAccesses
                   : 0.0);
    result.add("check.share", "frac",
               checkedRun > 0.0 ? 1.0 - uncheckedRun / checkedRun : 0.0);
    result.add("trace_replay.load_s", "s", loadS);
    result.add("trace_replay.decode_mb_per_s", "MB/s",
               loadS > 0.0 ? counts.traceBytes / passes / loadS / 1e6 : 0.0);
    result.add("trace_replay.replay_s", "s", replayS);
    result.add("trace_replay.resident_mb", "MB", counts.residentBytes / 1e6);
    result.add("trace_overhead_frac", "frac",
               quantile(traced, 0.5) / quantile(untraced, 0.5) - 1.0);

    const std::map<std::string, double> counters = {
        {"cells_per_pass", static_cast<double>(grid.cells())},
        {"traced_passes", static_cast<double>(traced.size())},
        {"untraced_pass_s", quantile(untraced, 0.5)},
        {"traced_pass_s", quantile(traced, 0.5)},
        {"value_sum_us", valueSum(reference)},
    };
    const std::string tracePath =
        options.outDir + "/TRACE_" + options.workload + ".json";
    if (!log.write(tracePath, options.workload, counters))
        std::cerr << "warning: cannot write " << tracePath << "\n";
    if (workload.replay)
        fs::remove_all(store);
    return result;
}

/**
 * The timed run.  Set-up sweeps every input cold, each in a fresh
 * process on the next CPU; for a replay these are the record-on-miss
 * sweeps that fill the trace store, so this process only replays.  The
 * timed passes then sweep the --seed's own input again and again, each
 * on the next CPU, so every cell repeats once per pass; the first pass
 * is cold, which its cells' floors leave out.  Every sweep of that
 * input must reproduce its set-up figure.
 */
Result
timedWorkload(const Options &options, const SweepWorkload &workload,
              CpuRotation &cpus)
{
    Result result;
    const std::string store = workload.replay ? emptyStore(options) : "";
    // One sweep of input @p k in a fresh process on the next CPU.
    const auto probe = [&](std::size_t k, double &seconds, double &peakRss,
                           std::vector<double> &values) {
        cpus.next();
        if (runProbeChild(options, inputSeed(options.seed, k), store,
                          seconds, values, peakRss))
            return true;
        result.fail("set-up sweep of input " + std::to_string(k) +
                    " failed (see probe.log)");
        ++result.failed;
        return false;
    };
    std::vector<double> setup;
    double peakRss = 0.0;
    std::vector<double> reference;
    for (std::size_t k = 0; k < kInputs; ++k) {
        double seconds = 0.0;
        double peak = 0.0;
        std::vector<double> values;
        if (!probe(k, seconds, peak, values))
            return result;
        setup.push_back(seconds);
        peakRss = std::max(peakRss, peak);
        if (k == 0)
            reference = values;
    }
    // A figure binary sweeps once per process, so that is whose peak
    // memory counts: the set-up sweeps' for an executed figure, and for
    // a replayed one a sweep that only replays, from the filled store.
    if (workload.replay) {
        double seconds = 0.0;
        std::vector<double> values;
        if (!probe(0, seconds, peakRss, values))
            return result;
        expectSameFigure(reference, values, "replay sweep", result);
    }

    const Grid grid(workload.figure, options.seed);
    const core::RunMode mode =
        workload.replay ? core::RunMode::Replay : core::RunMode::Execute;
    Passes passes;
    const double begin = wallNow();
    do {
        cpus.next();
        const SweepRun pass = runSweep(grid, mode, store);
        for (std::size_t c = 0; c < pass.cellSeconds.size(); ++c)
            passes.add(c, pass.cellSeconds[c]);
        passes.endPass();
        if (!tally(pass, result))
            break;
        expectSameFigure(reference, pass.values, "timed pass", result);
    } while (wallNow() - begin < options.seconds);
    checkGolden(options, grid, reference, result);

    result.addLatency("op_p50_ms", passes, 0.5);
    result.addLatency("op_p90_ms", passes, 0.9);
    result.addThroughput("ops_per_s", passes);
    result.addMedian("setup_s", "s", setup);
    result.add("peak_rss_mb", "MB", peakRss);
    if (workload.replay)
        fs::remove_all(store);
    return result;
}

} // namespace

bool
isSweepWorkload(const std::string &name)
{
    return findSweep(name) != nullptr;
}

Result
runSweepWorkload(const Options &options, CpuRotation &cpus)
{
    const SweepWorkload &workload = *findSweep(options.workload);
    return options.trace ? tracedWorkload(options, workload)
                         : timedWorkload(options, workload, cpus);
}

int
runSweepProbe(const Options &options)
{
    const SweepWorkload &workload = *findSweep(options.workload);
    const Grid grid(workload.figure, options.seed);
    const SweepRun run = runSweep(grid,
                                  workload.replay ? core::RunMode::Replay
                                                  : core::RunMode::Execute,
                                  options.probeStore);
    if (!run.failures.empty())
        return 1;
    std::cout << "probe " << formatExact(run.seconds);
    for (const double v : run.values)
        std::cout << " " << formatExact(v);
    std::cout << "\n";
    return 0;
}

} // namespace absim::perfbench
