/**
 * @file
 * Command-line driver exposing every knob of the experiment driver: run
 * one (app, machine, topology, P) combination and dump the full SPASM
 * profile.  The closest thing to SPASM's own command line.
 *
 *   run_cli --app cg --machine target --topo mesh --procs 16 \
 *           --size 512 --iters 5 --cache-kb 64 --policy single
 *
 * With --sweep METRIC the driver instead sweeps the processor counts
 * (powers of two up to --procs) and prints the three-machine figure for
 * that metric; --jobs N runs the sweep's points on a worker pool with
 * byte-identical output (see docs/PARALLELISM.md).
 *
 * Bad flags print a diagnostic naming the offending value plus the
 * valid choices, then the usage text, and exit 2.  Simulation failures
 * (deadlock, exceeded budget, invariant/validation failure) print the
 * structured RunError and exit 1; a sweep with failed points exits 3.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>

#include "core/env.hh"
#include "core/experiment.hh"
#include "core/figures.hh"
#include "fault/fault.hh"
#include "machines/registry.hh"

using namespace absim;

namespace {

void
usage(std::FILE *out, const char *argv0)
{
    std::string machines;
    for (const mach::MachineSpec &spec : mach::machineRegistry()) {
        if (!machines.empty())
            machines += '|';
        machines += spec.name;
    }
    std::fprintf(
        out,
        "usage: %s [options]\n"
        "  --app NAME       ep|is|cg|cholesky|fft|stencil|radix|"
        "synthetic (default fft)\n"
        "  --machine KIND   %s (default target)\n"
        "  --topo NAME      full|cube|mesh (default full)\n"
        "  --procs P        1..64 (default 8)\n"
        "  --size N         problem size (default: app-specific)\n"
        "  --iters K        iteration count where applicable\n"
        "  --seed S         workload seed (default 12345)\n"
        "  --policy NAME    single|per-direction|bisection (default "
        "single)\n"
        "  --protocol NAME  berkeley|msi (target machine; default "
        "berkeley)\n"
        "  --cache-kb KB    cache size per node (default 64)\n"
        "  --no-check       skip result validation\n"
        "  --max-events N   abort after N engine events (0 = unlimited)\n"
        "  --wall-seconds S abort after S wall-clock seconds (0 = "
        "unlimited)\n"
        "  --stall-limit N  deadlock watchdog: dispatches without "
        "sim-time\n"
        "                   progress before aborting (default 10000000)\n"
        "  --retries N      total attempts for retryable failures "
        "(default 2)\n"
        "  --fault-plan S   arm the fault injector, e.g.\n"
        "                   'wedge@120:node=2; corrupt@80; seed=7'\n"
        "                   (see docs/ROBUSTNESS.md)\n"
        "  --sweep METRIC   exec|latency|contention: sweep P over the\n"
        "                   powers of two up to --procs and print the\n"
        "                   three-machine figure\n"
        "  --jobs N         sweep worker threads (default 1; output is\n"
        "                   identical for any value)\n"
        "  --record         execute and record the reference trace into\n"
        "                   the trace store (see docs/TRACING.md)\n"
        "  --replay         replay stored traces instead of executing\n"
        "                   (record-on-miss: a missing trace executes\n"
        "                   and records)\n"
        "  --trace-dir DIR  trace store directory (default 'traces';\n"
        "                   env ABSIM_TRACE_DIR)\n",
        argv0, machines.c_str());
}

[[noreturn]] void
badFlag(const char *argv0, const std::string &what)
{
    std::fprintf(stderr, "error: %s\n\n", what.c_str());
    usage(stderr, argv0);
    std::exit(2);
}

std::string
joinNames(const std::vector<std::string> &names)
{
    std::string out;
    for (const std::string &name : names) {
        if (!out.empty())
            out += ", ";
        out += name;
    }
    return out;
}

/** Parse a non-negative integer flag value; reject trailing garbage. */
std::uint64_t
parseUint(const char *argv0, const std::string &flag, const char *text)
{
    std::uint64_t v = 0;
    if (!core::parseUint(text, v))
        badFlag(argv0, "invalid " + flag + " value '" + text +
                           "' (expected a non-negative integer)");
    return v;
}

double
parseDouble(const char *argv0, const std::string &flag, const char *text)
{
    double v = 0.0;
    if (!core::parseDouble(text, v) || v < 0.0)
        badFlag(argv0, "invalid " + flag + " value '" + text +
                           "' (expected a non-negative number)");
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    core::RunConfig config;
    if (const char *dir = core::envString("ABSIM_TRACE_DIR"))
        config.traceDir = dir;
    core::RunPolicy policy;
    fault::Plan plan;
    bool sweep = false;
    core::Metric metric = core::Metric::ExecTime;
    unsigned jobs = 1;
    const char *argv0 = argv[0];

    auto next = [&](int &i) -> const char * {
        if (++i >= argc)
            badFlag(argv0, std::string("missing value after ") +
                               argv[i - 1]);
        return argv[i];
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(stdout, argv0);
            return 0;
        } else if (arg == "--app") {
            const std::string v = next(i);
            try {
                (void)apps::makeApp(v);
            } catch (const std::invalid_argument &) {
                badFlag(argv0,
                        "unknown app '" + v + "' (valid: " +
                            joinNames(apps::appNames()) + ", " +
                            joinNames(apps::extensionAppNames()) + ")");
            }
            config.app = v;
        } else if (arg == "--machine") {
            const std::string v = next(i);
            mach::MachineKind kind{};
            if (!mach::parseMachineKind(v, kind))
                badFlag(argv0, "unknown machine '" + v + "' (valid: " +
                                   mach::machineNames() + ")");
            config.machine = kind;
        } else if (arg == "--topo") {
            const std::string v = next(i);
            if (v == "full")
                config.topology = net::TopologyKind::Full;
            else if (v == "cube")
                config.topology = net::TopologyKind::Hypercube;
            else if (v == "mesh")
                config.topology = net::TopologyKind::Mesh2D;
            else
                badFlag(argv0, "unknown topology '" + v +
                                   "' (valid: full, cube, mesh)");
        } else if (arg == "--procs") {
            const std::uint64_t p = parseUint(argv0, arg, next(i));
            if (p < 1 || p > 64)
                badFlag(argv0, "invalid --procs value '" +
                                   std::to_string(p) +
                                   "' (valid: 1..64)");
            config.procs = static_cast<std::uint32_t>(p);
        } else if (arg == "--size") {
            config.params.n = parseUint(argv0, arg, next(i));
        } else if (arg == "--iters") {
            config.params.iterations =
                static_cast<std::uint32_t>(parseUint(argv0, arg, next(i)));
        } else if (arg == "--seed") {
            config.params.seed = parseUint(argv0, arg, next(i));
        } else if (arg == "--policy") {
            const std::string v = next(i);
            if (v == "single")
                config.gapPolicy = logp::GapPolicy::Single;
            else if (v == "per-direction")
                config.gapPolicy = logp::GapPolicy::PerDirection;
            else if (v == "bisection")
                config.gapPolicy = logp::GapPolicy::BisectionOnly;
            else
                badFlag(argv0,
                        "unknown gap policy '" + v +
                            "' (valid: single, per-direction, bisection)");
        } else if (arg == "--protocol") {
            const std::string v = next(i);
            if (v == "berkeley")
                config.protocol = mach::ProtocolKind::Berkeley;
            else if (v == "msi")
                config.protocol = mach::ProtocolKind::Msi;
            else
                badFlag(argv0, "unknown protocol '" + v +
                                   "' (valid: berkeley, msi)");
        } else if (arg == "--cache-kb") {
            config.cache.bytes = static_cast<std::uint32_t>(
                parseUint(argv0, arg, next(i)) * 1024);
        } else if (arg == "--no-check") {
            config.checkResult = false;
        } else if (arg == "--max-events") {
            policy.budget.maxEvents = parseUint(argv0, arg, next(i));
        } else if (arg == "--wall-seconds") {
            policy.budget.maxWallSeconds =
                parseDouble(argv0, arg, next(i));
        } else if (arg == "--stall-limit") {
            policy.budget.stallDispatchLimit =
                parseUint(argv0, arg, next(i));
        } else if (arg == "--retries") {
            const std::uint64_t n = parseUint(argv0, arg, next(i));
            if (n < 1 || n > 100)
                badFlag(argv0, "invalid --retries value '" +
                                   std::to_string(n) +
                                   "' (valid: 1..100)");
            policy.maxAttempts = static_cast<int>(n);
        } else if (arg == "--fault-plan") {
            const char *spec = next(i);
            try {
                plan = fault::Plan::parse(spec);
            } catch (const std::invalid_argument &e) {
                badFlag(argv0, std::string("invalid --fault-plan: ") +
                                   e.what());
            }
        } else if (arg == "--sweep") {
            const std::string v = next(i);
            sweep = true;
            if (v == "exec")
                metric = core::Metric::ExecTime;
            else if (v == "latency")
                metric = core::Metric::Latency;
            else if (v == "contention")
                metric = core::Metric::Contention;
            else
                badFlag(argv0,
                        "unknown sweep metric '" + v +
                            "' (valid: exec, latency, contention)");
        } else if (arg == "--jobs") {
            const std::uint64_t n = parseUint(argv0, arg, next(i));
            if (n < 1 || n > 256)
                badFlag(argv0, "invalid --jobs value '" +
                                   std::to_string(n) +
                                   "' (valid: 1..256)");
            jobs = static_cast<unsigned>(n);
        } else if (arg == "--record") {
            config.mode = core::RunMode::Record;
        } else if (arg == "--replay") {
            config.mode = core::RunMode::Replay;
        } else if (arg == "--trace-dir") {
            config.traceDir = next(i);
        } else {
            badFlag(argv0, "unknown option '" + arg + "'");
        }
    }

    fault::ScopedPlan armed(plan); // Inert when the plan is empty.

    if (sweep) {
        if (!plan.faults.empty() && jobs > 1)
            std::fprintf(stderr,
                         "warning: --fault-plan does not propagate to "
                         "--jobs worker threads (fault state is "
                         "per-thread); the sweep runs fault-free\n");
        std::vector<std::uint32_t> procs;
        for (const std::uint32_t p : core::defaultProcCounts())
            if (p <= config.procs)
                procs.push_back(p);
        core::SweepOptions options;
        options.policy = policy;
        options.jobs = jobs;
        const core::SweepResult result = core::sweepFigureSafe(
            "Sweep: " + config.app + " on " +
                net::toString(config.topology) + ": " +
                core::toString(metric),
            config, config.topology, metric, procs, options);
        core::printFigure(std::cout, result.figure);
        for (const core::FailedPoint &f : result.failures)
            std::fprintf(stderr,
                         "failed point: procs=%u machine=%s error=%s: "
                         "%s\n",
                         f.procs, f.machine.c_str(), f.error.c_str(),
                         f.message.c_str());
        return result.complete() ? 0 : 3;
    }

    const core::RunResult result = core::runOneSafe(config, policy);
    if (!result.ok()) {
        std::cerr << result.error() << "\n";
        return 1;
    }
    const stats::Profile &profile = result.value();
    std::printf("app=%s machine=%s network=%s procs=%u\n",
                config.app.c_str(),
                mach::toString(config.machine).c_str(),
                net::toString(config.topology).c_str(), config.procs);
    std::cout << profile;
    std::printf("protocol: %llu read misses, %llu write misses, "
                "%llu upgrades, %llu invalidations, %llu writebacks\n",
                static_cast<unsigned long long>(
                    profile.machine.readMisses),
                static_cast<unsigned long long>(
                    profile.machine.writeMisses),
                static_cast<unsigned long long>(profile.machine.upgrades),
                static_cast<unsigned long long>(
                    profile.machine.invalidations),
                static_cast<unsigned long long>(
                    profile.machine.writebacks));
    if (profile.remoteLatency.samples() > 0) {
        std::printf(
            "remote access time: mean %.2f us, ~p50 <= %.2f us, "
            "~p99 <= %.2f us, max %.2f us (%llu samples)\n",
            profile.remoteLatency.mean() / 1000.0,
            profile.remoteLatency.approxQuantile(0.5) / 1000.0,
            profile.remoteLatency.approxQuantile(0.99) / 1000.0,
            profile.remoteLatency.max() / 1000.0,
            static_cast<unsigned long long>(
                profile.remoteLatency.samples()));
    }
    const auto phases = profile.phaseSummary();
    if (phases.size() > 1) {
        std::printf("phases (summed over processors, us):\n");
        for (const auto &phase : phases) {
            std::printf("  %-12s busy %10.1f latency %10.1f "
                        "contention %10.1f wait %10.1f\n",
                        phase.name.c_str(), phase.busy / 1000.0,
                        phase.latency / 1000.0, phase.contention / 1000.0,
                        phase.wait / 1000.0);
        }
    }
    std::printf("simulation: %.3f s wall, %llu events\n",
                profile.wallSeconds,
                static_cast<unsigned long long>(profile.engineEvents));
    return 0;
}
