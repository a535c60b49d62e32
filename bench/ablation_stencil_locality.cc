/// Communication-locality ablation (extension): the near-neighbor
/// stencil on the mesh.
///
/// The paper shows g's bisection-bandwidth derivation "fails to capture
/// any communication locality resulting from mapping the application on
/// to a specific network topology" (Section 7), using EP.  The stencil
/// extension is the limiting case: with rows block-distributed, all
/// communication is between mesh neighbors and essentially none crosses
/// the bisection — so standard LogP+C contention should be maximally
/// pessimistic, while the locality-aware (bisection-only) g usage should
/// collapse toward the target.
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

constexpr std::uint32_t kProcs[] = {2u, 4u, 8u, 16u, 32u};

} // namespace

int
main(int argc, char **argv)
{
    core::Settings settings;
    if (!bench::parseSettings(core::kAblation, argc, argv, settings))
        return 2;

    core::RunConfig base;
    base.app = "stencil";
    base.params.n = 64;
    base.topology = net::TopologyKind::Mesh2D;

    std::vector<core::RunConfig> configs;
    for (const std::uint32_t p : kProcs) {
        for (const Column &col : kColumns) {
            core::RunConfig config = base;
            config.machine = col.machine;
            config.gapPolicy = col.policy;
            config.procs = p;
            configs.push_back(config);
        }
    }

    const auto results = core::runManySafe(configs, {}, settings.jobs);

    std::printf("# Stencil (near-neighbor) on Mesh: contention overhead "
                "(us, per-proc mean)\n");
    std::printf("%6s %14s %18s %18s\n", "procs", "target",
                "logp+c(single)", "logp+c(bisect)");
    int rc = 0;
    for (std::size_t pi = 0; pi < std::size(kProcs); ++pi) {
        double value[kColumnCount] = {};
        for (std::size_t c = 0; c < kColumnCount; ++c) {
            const core::RunResult &run = results[pi * kColumnCount + c];
            if (!run.ok()) {
                std::fprintf(stderr, "failed run: procs=%u column=%zu: %s\n",
                             kProcs[pi], c, run.error().message.c_str());
                rc = 3;
                continue;
            }
            value[c] = core::metricValue(run.value(),
                                         core::Metric::Contention);
        }
        std::printf("%6u %14.1f %18.1f %18.1f\n", kProcs[pi], value[0],
                    value[1], value[2]);
    }
    return rc;
}
