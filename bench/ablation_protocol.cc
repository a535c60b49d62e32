/// Protocol-sensitivity ablation (extension testing two paper claims).
///
/// Section 3.2 claims the LogP+C ideal cache generates "the minimum
/// number of network messages that any [invalidation-based] coherence
/// protocol may hope to achieve", and Section 7 cites Wood et al. that
/// application performance is not very sensitive to the protocol
/// choice.  We run the target machine under Berkeley (the paper's
/// protocol, owner-supplies) and plain MSI (recall-through-memory,
/// strictly more traffic on dirty sharing) and compare both against
/// LogP+C: the expected ordering is
///
///     messages(LogP+C) <= messages(Berkeley) <= messages(MSI)
///
/// with execution times close between the two real protocols.
///
/// Supports --jobs N / ABSIM_JOBS: the runs execute on a worker pool
/// and print in the same order regardless of the job count.
#include <cstdio>
#include <vector>

#include "fig_common.hh"

namespace {

using namespace absim;

struct Column
{
    mach::MachineKind machine;
    mach::ProtocolKind protocol;
};

constexpr Column kColumns[] = {
    {mach::MachineKind::Target, mach::ProtocolKind::Berkeley},
    {mach::MachineKind::Target, mach::ProtocolKind::Msi},
    {mach::MachineKind::LogPC, mach::ProtocolKind::Berkeley},
};

constexpr std::size_t kColumnCount = std::size(kColumns);

struct Row
{
    std::uint64_t messages = 0;
    double exec_us = 0.0;
};

} // namespace

int
main(int argc, char **argv)
{
    core::Settings settings;
    if (!bench::parseSettings(core::kAblation, argc, argv, settings))
        return 2;

    const auto apps = apps::appNames();
    std::vector<core::RunConfig> configs;
    for (const auto &app : apps) {
        for (const Column &col : kColumns) {
            core::RunConfig config;
            config.app = app;
            config.machine = col.machine;
            config.protocol = col.protocol;
            config.topology = net::TopologyKind::Full;
            config.procs = 8;
            configs.push_back(config);
        }
    }

    const auto results = core::runManySafe(configs, {}, settings.jobs);

    std::printf("# Coherence-protocol sensitivity, P=8, full network\n");
    std::printf("%-10s %22s %22s %22s\n", "", "target/berkeley",
                "target/msi", "logp+c");
    std::printf("%-10s %10s %11s %10s %11s %10s %11s\n", "app", "msgs",
                "exec(us)", "msgs", "exec(us)", "msgs", "exec(us)");
    int rc = 0;
    for (std::size_t ai = 0; ai < apps.size(); ++ai) {
        Row row[kColumnCount];
        for (std::size_t c = 0; c < kColumnCount; ++c) {
            const core::RunResult &run = results[ai * kColumnCount + c];
            if (!run.ok()) {
                std::fprintf(stderr, "failed run: app=%s column=%zu: %s\n",
                             apps[ai].c_str(), c,
                             run.error().message.c_str());
                rc = 3;
                continue;
            }
            const auto &profile = run.value();
            row[c].messages = profile.machine.messages;
            row[c].exec_us =
                static_cast<double>(profile.execTime()) / 1000.0;
        }
        std::printf("%-10s %10llu %11.1f %10llu %11.1f %10llu %11.1f\n",
                    apps[ai].c_str(),
                    static_cast<unsigned long long>(row[0].messages),
                    row[0].exec_us,
                    static_cast<unsigned long long>(row[1].messages),
                    row[1].exec_us,
                    static_cast<unsigned long long>(row[2].messages),
                    row[2].exec_us);
    }
    std::printf("\n# Expected: logp+c msgs <= berkeley msgs <= msi msgs;\n"
                "# berkeley and msi execution times close (Wood et al.).\n");
    return rc;
}
