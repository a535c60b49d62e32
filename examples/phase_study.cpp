/**
 * @file
 * Bottleneck isolation demo: SPASM-style per-phase overhead separation
 * plus the remote-access latency distribution, for one application on
 * the target machine and on LogP+C.
 *
 * This is the workflow the paper's Section 3.3 describes: even when two
 * machines' total execution times agree, the per-phase latency and
 * contention columns reveal whether the model parameters capture the
 * intended machine behaviour — and *which* program phase a disagreement
 * comes from.
 *
 * Usage: phase_study [app] [procs]
 */

#include <cstdio>
#include <string>

#include "core/experiment.hh"
#include "core/run_settings.hh"

using namespace absim;

namespace {

void
printBreakdown(const stats::Profile &profile)
{
    std::printf("  %-12s %12s %12s %12s\n", "phase", "busy(us)",
                "latency(us)", "contention(us)");
    for (const auto &phase : profile.phaseSummary()) {
        std::printf("  %-12s %12.1f %12.1f %12.1f\n", phase.name.c_str(),
                    phase.busy / 1000.0, phase.latency / 1000.0,
                    phase.contention / 1000.0);
    }
    if (profile.remoteLatency.samples() > 0) {
        std::printf("  remote access: mean %.2f us, ~p99 <= %.2f us "
                    "(%llu samples)\n",
                    profile.remoteLatency.mean() / 1000.0,
                    profile.remoteLatency.approxQuantile(0.99) / 1000.0,
                    static_cast<unsigned long long>(
                        profile.remoteLatency.samples()));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    core::Settings settings;
    core::RunConfig &config = settings.config;
    config.app = "is";
    const char *keys[] = {"app", "procs"}; // Parsed by their settings rows.
    for (int i = 1; i < argc && i <= 2; ++i) {
        const core::RunSetting &row = *core::findRunSetting(keys[i - 1]);
        if (!row.apply(argv[i], settings)) {
            std::fprintf(
                stderr, "error: %s\nusage: %s [app] [procs]\n",
                core::invalidValue(row.key, argv[i], row).c_str(),
                argv[0]);
            return 2;
        }
    }
    config.topology = net::TopologyKind::Hypercube;

    std::printf("Per-phase overhead separation: %s on %u processors "
                "(hypercube)\n\n",
                config.app.c_str(), config.procs);
    for (const auto kind :
         {mach::MachineKind::Target, mach::MachineKind::LogPC}) {
        config.machine = kind;
        const auto profile = core::runOne(config);
        std::printf("%s machine (exec %.1f us):\n",
                    mach::toString(kind).c_str(),
                    profile.execTime() / 1000.0);
        printBreakdown(profile);
        std::printf("\n");
    }
    std::printf("Reading: compare the same phase across machines — the\n"
                "latency columns should agree (L abstracts the network\n"
                "well) while contention columns show the g pessimism,\n"
                "concentrated in the communication-heavy phases.\n");
    return 0;
}
