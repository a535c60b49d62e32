/// Cache-size ablation (extension): how big must the abstracted cache be?
///
/// The paper builds on the observation (Rothberg/Singh/Gupta, ISCA'93,
/// its reference [21]) that ~64 KB caches hold the important working set
/// of many parallel applications — that is what makes a fixed-geometry
/// ideal cache a safe locality abstraction.  This bench sweeps the cache
/// size of both cached machines and reports miss traffic and execution
/// time: the curves flatten once the working set fits, validating the
/// paper's choice of 64 KB for this suite.
///
/// Supports --jobs N / ABSIM_JOBS: the runs execute on a worker pool
/// and print in the same order regardless of the job count.
#include <cstdio>
#include <vector>

#include "fig_common.hh"

namespace {

using namespace absim;

constexpr std::uint32_t kSizesKb[] = {4u, 16u, 64u, 256u};
constexpr mach::MachineKind kKinds[] = {mach::MachineKind::Target,
                                        mach::MachineKind::LogPC};

struct AppSweep
{
    const char *app;
    std::uint64_t n;
};

constexpr AppSweep kApps[] = {{"fft", 2048}, {"cg", 512}};

} // namespace

int
main(int argc, char **argv)
{
    core::Settings settings;
    if (!bench::parseSettings(core::kAblation, argc, argv, settings))
        return 2;

    std::vector<core::RunConfig> configs;
    for (const AppSweep &sweep : kApps) {
        for (const std::uint32_t kb : kSizesKb) {
            for (const auto kind : kKinds) {
                core::RunConfig config;
                config.app = sweep.app;
                config.params.n = sweep.n;
                config.procs = 8;
                config.cache.bytes = kb * 1024;
                config.machine = kind;
                configs.push_back(config);
            }
        }
    }

    const auto results = core::runManySafe(configs, {}, settings.jobs);

    int rc = 0;
    std::size_t i = 0;
    for (const AppSweep &sweep : kApps) {
        std::printf("# app=%s, P=8, full network; per-machine: read+write "
                    "misses | exec time (us)\n",
                    sweep.app);
        std::printf("%10s %24s %24s\n", "cache", "target", "logp+c");
        for (const std::uint32_t kb : kSizesKb) {
            std::uint64_t misses[2] = {0, 0};
            double exec[2] = {0.0, 0.0};
            for (int m = 0; m < 2; ++m, ++i) {
                const core::RunResult &run = results[i];
                if (!run.ok()) {
                    std::fprintf(stderr,
                                 "failed run: app=%s cache=%uKB: %s\n",
                                 sweep.app, kb,
                                 run.error().message.c_str());
                    rc = 3;
                    continue;
                }
                const auto &profile = run.value();
                misses[m] = profile.machine.readMisses +
                            profile.machine.writeMisses;
                exec[m] =
                    static_cast<double>(profile.execTime()) / 1000.0;
            }
            std::printf("%8uKB %12llu | %9.1f %12llu | %9.1f\n", kb,
                        static_cast<unsigned long long>(misses[0]),
                        exec[0],
                        static_cast<unsigned long long>(misses[1]),
                        exec[1]);
        }
        std::printf("\n");
    }
    return rc;
}
