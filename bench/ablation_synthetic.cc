/// Access-pattern ablation (extension, in the spirit of the authors'
/// bandwidth-characterization companion paper, reference [26]).
///
/// Controlled microworkloads expose exactly when the bisection-bandwidth
/// g is wrong: "neighbor" traffic (maximum communication locality) gets
/// charged as if it crossed the bisection — the LogP+C contention blows
/// up relative to the target — while "uniform" and "hotspot" traffic
/// match g's assumptions much better.  The locality-aware gap policy
/// repairs the neighbor case.
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
    logp::GapPolicy policy;
};

constexpr Column kColumns[] = {
    {mach::MachineKind::Target, logp::GapPolicy::Single},
    {mach::MachineKind::LogPC, logp::GapPolicy::Single},
    {mach::MachineKind::LogPC, logp::GapPolicy::BisectionOnly},
};

constexpr std::size_t kColumnCount = std::size(kColumns);

constexpr const char *kVariants[] = {"private", "neighbor", "uniform",
                                     "hotspot"};

} // namespace

int
main(int argc, char **argv)
{
    core::Settings settings;
    if (!bench::parseSettings(core::kAblation, argc, argv, settings))
        return 2;

    std::vector<core::RunConfig> configs;
    for (const char *variant : kVariants) {
        for (const Column &col : kColumns) {
            core::RunConfig config;
            config.app = "synthetic";
            config.params.variant = variant;
            config.machine = col.machine;
            config.gapPolicy = col.policy;
            config.topology = net::TopologyKind::Mesh2D;
            config.procs = 16;
            configs.push_back(config);
        }
    }

    const auto results = core::runManySafe(configs, {}, settings.jobs);

    std::printf("# Synthetic access patterns on a 4x4 mesh, P=16: "
                "contention overhead (us, per-proc mean)\n");
    std::printf("%-10s %12s %18s %18s\n", "pattern", "target",
                "logp+c(single)", "logp+c(bisect)");
    int rc = 0;
    for (std::size_t vi = 0; vi < std::size(kVariants); ++vi) {
        double value[kColumnCount] = {};
        for (std::size_t c = 0; c < kColumnCount; ++c) {
            const core::RunResult &run = results[vi * kColumnCount + c];
            if (!run.ok()) {
                std::fprintf(stderr,
                             "failed run: pattern=%s column=%zu: %s\n",
                             kVariants[vi], c,
                             run.error().message.c_str());
                rc = 3;
                continue;
            }
            value[c] = run.value().meanContention() / 1000.0;
        }
        std::printf("%-10s %12.1f %18.1f %18.1f\n", kVariants[vi],
                    value[0], value[1], value[2]);
    }
    std::printf("\n# Reading: 'neighbor' is where the standard g is most\n"
                "# pessimistic and where the locality-aware gate recovers\n"
                "# the most; 'private' must be ~zero everywhere.\n");
    return rc;
}
