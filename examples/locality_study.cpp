/**
 * @file
 * Locality-abstraction study (paper Section 6.2 in miniature).
 *
 * Compares the network traffic (message count) and execution time of the
 * LogP and LogP+C machines against the target machine for every
 * application.  The LogP machine's inflation quantifies the impact of
 * ignoring data locality; the LogP+C machine's agreement validates the
 * ideal-coherent-cache abstraction.
 *
 * Usage: locality_study [procs]
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/experiment.hh"
#include "core/run_settings.hh"

using namespace absim;

int
main(int argc, char **argv)
{
    core::Settings settings;
    core::RunConfig &config = settings.config;
    const core::RunSetting &row = *core::findRunSetting("procs");
    if (argc > 1 && !row.apply(argv[1], settings)) {
        std::fprintf(stderr, "error: %s\nusage: %s [procs]\n",
                     core::invalidValue(row.key, argv[1], row).c_str(),
                     argv[0]);
        return 2;
    }
    config.topology = net::TopologyKind::Full;

    std::printf("Locality study at P=%u on the fully connected network\n\n",
                config.procs);
    std::printf("%-10s %28s %28s\n", "", "network messages",
                "exec time (us)");
    std::printf("%-10s %9s %9s %8s %9s %9s %8s\n", "app", "target", "logp",
                "logp+c", "target", "logp", "logp+c");

    for (const auto &app : apps::appNames()) {
        config.app = app;
        std::uint64_t messages[3];
        double exec[3];
        int i = 0;
        for (const auto kind :
             {mach::MachineKind::Target, mach::MachineKind::LogP,
              mach::MachineKind::LogPC}) {
            config.machine = kind;
            const auto profile = core::runOne(config);
            messages[i] = profile.machine.messages;
            exec[i] = static_cast<double>(profile.execTime()) / 1000.0;
            ++i;
        }
        std::printf("%-10s %9llu %9llu %8llu %9.0f %9.0f %8.0f\n",
                    app.c_str(),
                    static_cast<unsigned long long>(messages[0]),
                    static_cast<unsigned long long>(messages[1]),
                    static_cast<unsigned long long>(messages[2]), exec[0],
                    exec[1], exec[2]);
    }

    std::printf(
        "\nPaper reading: LogP+C message counts stay close to (and\n"
        "slightly below) the target's — the ideal coherent cache captures\n"
        "the true communication.  The cache-less LogP machine inflates\n"
        "both traffic and execution time, most severely for the dynamic\n"
        "applications (CG, CHOLESKY): locality cannot be abstracted away.\n");
    return 0;
}
