/**
 * @file
 * Command-line driver exposing every knob of the experiment driver: run
 * one (app, machine, topology, P) combination and dump the full SPASM
 * profile.  The closest thing to SPASM's own command line.
 *
 *   run_cli --app cg --machine target --topology mesh --procs 16 \
 *           --size 512 --iterations 5 --cache-kb 64 --gap single
 *
 * Every run setting is a row of the run-settings table
 * (core/run_settings.hh): its flag is the serve request's key with '_'
 * spelled '-', and it takes the same values and ranges there.  With
 * --sweep METRIC the driver instead sweeps the processor counts (powers
 * of two up to --procs) and prints the three-machine figure for that
 * metric; --jobs N runs the sweep's points on a worker pool with
 * byte-identical output (see docs/PARALLELISM.md).
 *
 * Bad flags print a diagnostic naming the offending value plus the
 * valid choices, then the usage text, and exit 2.  Simulation failures
 * (deadlock, exceeded budget, invariant/validation failure) print the
 * structured RunError and exit 1; a sweep with failed points exits 3.
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/env.hh"
#include "core/experiment.hh"
#include "core/figures.hh"
#include "core/run_settings.hh"
#include "fault/fault.hh"
#include "machines/registry.hh"

using namespace absim;

namespace {

void
usage(std::FILE *out, const char *argv0)
{
    std::fprintf(
        out,
        "usage: %s [options]\n%s"
        "  --fault-plan S     arm the fault injector, e.g.\n"
        "                     'wedge@120:node=2; corrupt@80; seed=7'\n"
        "                     (see docs/ROBUSTNESS.md)\n"
        "  --sweep METRIC     sweep P over the powers of two up to --procs\n"
        "                     and print the three-machine figure\n"
        "                     valid: %s\n"
        "  --jobs N           sweep worker threads (default 1; output is\n"
        "                     identical for any value)\n"
        "  --record           execute and record the reference trace into\n"
        "                     the trace store (see docs/TRACING.md)\n"
        "  --replay           replay stored traces instead of executing\n"
        "                     (record-on-miss: a missing trace executes\n"
        "                     and records)\n"
        "  --trace-dir DIR    trace store directory (default 'traces';\n"
        "                     env ABSIM_TRACE_DIR)\n",
        argv0, core::runSettingsUsage().c_str(),
        core::metricNames().c_str());
}

[[noreturn]] void
badFlag(const char *argv0, const std::string &what)
{
    std::fprintf(stderr, "error: %s\n\n", what.c_str());
    usage(stderr, argv0);
    std::exit(2);
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
        } else if (const core::RunSetting *setting =
                       core::findRunSettingFlag(arg)) {
            const char *text = next(i);
            if (!setting->apply(text, config, policy))
                badFlag(argv0, core::invalidValue(arg, text, setting->valid));
        } else if (arg == "--fault-plan") {
            const char *spec = next(i);
            try {
                plan = fault::Plan::parse(spec);
            } catch (const std::invalid_argument &e) {
                badFlag(argv0, std::string("invalid --fault-plan: ") +
                                   e.what());
            }
        } else if (arg == "--sweep") {
            std::string error;
            sweep = true;
            if (!core::parseMetric(next(i), arg, metric, error))
                badFlag(argv0, error);
        } else if (arg == "--jobs") {
            const char *text = next(i);
            std::uint64_t n = 0;
            if (!core::parseUint(text, n) || n < 1 || n > 256)
                badFlag(argv0, core::invalidValue(arg, text, "1..256"));
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
