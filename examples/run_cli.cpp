/**
 * @file
 * Command-line driver exposing every knob of the experiment driver: run
 * one (app, machine, topology, P) combination and dump the full SPASM
 * profile.  The closest thing to SPASM's own command line.
 *
 *   run_cli --app cg --machine target --topology mesh --procs 16 \
 *           --size 512 --iterations 5 --cache-kb 64 --gap single
 *
 * Every option but --sweep and --help is a row of the run-settings
 * table (core/run_settings.hh): its flag is the serve request's key
 * with '_' spelled '-', its variable ABSIM_ plus the key in capitals,
 * and it takes the same values and ranges everywhere.  With --sweep
 * the driver instead sweeps the processor counts (powers of two up to
 * --procs) and prints the three-machine figure for --metric; --jobs N
 * runs the sweep's points on a worker pool with byte-identical output
 * (see docs/PARALLELISM.md).
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
#include <vector>

#include "core/run_settings.hh"
#include "machines/registry.hh"

using namespace absim;

namespace {

void
usage(std::FILE *out, const char *argv0)
{
    std::fprintf(out,
                 "usage: %s [options]\n"
                 "  --sweep            sweep P over the powers of two up to "
                 "--procs and print\n"
                 "                     the three-machine figure of --metric\n"
                 "%s",
                 argv0, core::runSettingsUsage(core::kRunCli).c_str());
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
    core::Settings settings;
    std::vector<std::string> rest;
    std::string error;
    if (!core::applySettings(core::kRunCli, argc, argv, settings, error,
                             &rest))
        badFlag(argv[0], error);
    bool sweep = false;
    for (const std::string &arg : rest) {
        if (arg == "--help" || arg == "-h") {
            usage(stdout, argv[0]);
            return 0;
        }
        if (arg != "--sweep")
            badFlag(argv[0], "unknown option '" + arg + "'");
        sweep = true;
    }
    const core::RunConfig &config = settings.config;
    fault::ScopedPlan armed(settings.faultPlan); // Inert when empty.

    if (sweep) {
        if (!settings.faultPlan.empty() && settings.jobs > 1)
            std::fprintf(stderr,
                         "warning: --fault-plan does not propagate to "
                         "--jobs worker threads (fault state is "
                         "per-thread); the sweep runs fault-free\n");
        core::SweepOptions options;
        options.policy = settings.policy;
        options.jobs = settings.jobs;
        const core::SweepResult result = core::sweepFigureSafe(
            "Sweep: " + config.app + " on " +
                net::toString(config.topology) + ": " +
                core::toString(settings.metric),
            config, config.topology, settings.metric,
            core::procCountsUpTo(config.procs), options);
        core::printFigure(std::cout, result.figure);
        for (const core::FailedPoint &f : result.failures)
            std::fprintf(stderr,
                         "failed point: procs=%u machine=%s error=%s: "
                         "%s\n",
                         f.procs, f.machine.c_str(), f.error.c_str(),
                         f.message.c_str());
        return result.complete() ? 0 : 3;
    }

    const core::RunResult result = core::runOneSafe(config, settings.policy);
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
