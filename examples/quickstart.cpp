/**
 * @file
 * Quickstart: simulate one application on the three machine
 * characterizations and print the SPASM overhead breakdown.
 *
 * Build and run:
 *     cmake -B build -G Ninja && cmake --build build
 *     ./build/examples/quickstart [app] [procs]
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/experiment.hh"
#include "core/run_settings.hh"

int
main(int argc, char **argv)
{
    namespace core = absim::core;
    core::Settings settings;
    core::RunConfig &config = settings.config;
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
    config.topology = absim::net::TopologyKind::Full;

    std::cout << "Application " << config.app << " on " << config.procs
              << " processors, fully connected network\n\n";

    for (const auto kind :
         {absim::mach::MachineKind::Target, absim::mach::MachineKind::LogP,
          absim::mach::MachineKind::LogPC}) {
        config.machine = kind;
        const auto profile = absim::core::runOne(config);
        std::cout << "=== " << absim::mach::toString(kind)
                  << " machine ===\n"
                  << "  exec time        "
                  << profile.execTime() / 1000.0 << " us\n"
                  << "  latency ovh      " << profile.meanLatency() / 1000.0
                  << " us (per-proc mean)\n"
                  << "  contention ovh   "
                  << profile.meanContention() / 1000.0
                  << " us (per-proc mean)\n"
                  << "  network messages " << profile.machine.messages
                  << "\n"
                  << "  sim wall time    " << profile.wallSeconds << " s, "
                  << profile.engineEvents << " events\n\n";
    }
    std::cout << "Result check passed on all three machines.\n";
    return 0;
}
