/// Section 7 ablation: how the g-gap is *used*.
///
/// The LogP definition precludes even simultaneous sends and receives at
/// one node; the paper experiments with allowing the gap only between
/// identical communication events (FFT on the cube) and finds the
/// resulting contention much closer to the real network.  This bench
/// reproduces that experiment: contention overhead for the target
/// machine vs LogP+C under both gap policies, plus plain LogP for
/// reference.
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
    {mach::MachineKind::LogPC, logp::GapPolicy::PerDirection},
    {mach::MachineKind::LogPC, logp::GapPolicy::BisectionOnly},
    {mach::MachineKind::LogP, logp::GapPolicy::Single},
};

constexpr std::size_t kColumnCount = std::size(kColumns);

} // namespace

int
main(int argc, char **argv)
{
    core::Settings settings;
    if (!bench::parseSettings(core::kAblation, argc, argv, settings))
        return 2;

    core::RunConfig base;
    base.app = "fft";
    base.topology = net::TopologyKind::Hypercube;

    const auto procs = core::defaultProcCounts();
    std::vector<core::RunConfig> configs;
    for (const std::uint32_t p : procs) {
        for (const Column &col : kColumns) {
            core::RunConfig config = base;
            config.machine = col.machine;
            config.gapPolicy = col.policy;
            config.procs = p;
            configs.push_back(config);
        }
    }

    const auto results = core::runManySafe(configs, {}, settings.jobs);

    std::printf("# Section 7 ablation: g-usage policy, FFT on Cube, "
                "contention overhead (us, per-proc mean)\n");
    std::printf("%6s %14s %18s %18s %18s %14s\n", "procs", "target",
                "logp+c(single)", "logp+c(per-dir)", "logp+c(bisect)",
                "logp(single)");
    int rc = 0;
    for (std::size_t pi = 0; pi < procs.size(); ++pi) {
        double value[kColumnCount] = {};
        for (std::size_t c = 0; c < kColumnCount; ++c) {
            const core::RunResult &run = results[pi * kColumnCount + c];
            if (!run.ok()) {
                std::fprintf(stderr, "failed run: procs=%u column=%zu: %s\n",
                             procs[pi], c, run.error().message.c_str());
                rc = 3;
                continue;
            }
            value[c] = core::metricValue(run.value(),
                                         core::Metric::Contention);
        }
        std::printf("%6u %14.1f %18.1f %18.1f %18.1f %14.1f\n", procs[pi],
                    value[0], value[1], value[2], value[3], value[4]);
    }
    std::printf(
        "\n# Paper expectation: the per-direction gap removes the\n"
        "# send-after-receive serialization of every round trip and\n"
        "# lands much closer to the target's link contention.  The\n"
        "# bisect column is this library's extension implementing the\n"
        "# paper's suggestion to fold communication locality into g:\n"
        "# only bisection-crossing messages consume gate bandwidth.\n");
    return rc;
}
