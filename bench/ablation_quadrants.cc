/// Quadrant ablation: every registry composition through one sweep.
///
/// The paper's three machines occupy three cells of the {detailed, logp}
/// network x {directory, ideal, uncached} memory grid, which entangles
/// the two abstractions: when logp+c disagrees with the target, the
/// error could come from the LogP network model, the ideal-cache
/// locality model, or both.  The registry's two off-diagonal quadrants
/// pull the factors apart:
///
///     target+ic  (detailed network, ideal cache)  — locality error only
///     logp+dir   (LogP network, real directory)   — network error only
///
/// This bench sweeps all five compositions on EP (computation
/// bound; every abstraction should agree) and IS (communication bound;
/// the errors separate) and prints, per point, the relative error of
/// each single-axis quadrant against the target plus the combined
/// logp+c error.
///
/// Each app's sweep is the figure program's sweep (fig_common.hh) over
/// the five compositions, so it takes the figure program's settings but
/// --figure, and its output directories; its artifacts are named
/// quadrants_<app>_full_exec_time, and max_procs defaults to 16.  A
/// shard (--shard K/N) skips the error table, which needs the full
/// grid.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "fig_common.hh"
#include "machines/registry.hh"

namespace {

using namespace absim;

/** Column index of @p kind in the swept machine list. */
std::size_t
columnOf(const std::vector<mach::MachineKind> &machines,
         mach::MachineKind kind)
{
    for (std::size_t i = 0; i < machines.size(); ++i)
        if (machines[i] == kind)
            return i;
    std::fprintf(stderr, "machine %s missing from the quadrant list\n",
                 mach::toString(kind).c_str());
    std::exit(1);
}

/** Relative error of @p value against @p reference, in percent. */
double
errorPct(double value, double reference)
{
    if (reference == 0.0)
        return 0.0;
    return 100.0 * (value - reference) / reference;
}

int
runApp(const std::string &app, core::Settings settings)
{
    settings.config.app = app;
    const core::SweepResult result = bench::runFigure(
        "Quadrant ablation: " + app + " on full: execution time",
        "quadrants_" + app + "_full_exec_time", settings,
        net::TopologyKind::Full, core::Metric::ExecTime,
        mach::allQuadrants());
    if (!result.complete())
        return 3;

    // A shard's figure is partial (unowned cells read 0.0); the error
    // table only means something on the merged full grid.
    if (settings.shard.sharded())
        return 0;

    const auto machines = core::figureMachines(result.figure);
    const std::size_t target =
        columnOf(machines, mach::MachineKind::Target);
    const std::size_t target_ic =
        columnOf(machines, mach::MachineKind::TargetIC);
    const std::size_t logp_dir =
        columnOf(machines, mach::MachineKind::LogPDir);
    const std::size_t logp_c = columnOf(machines, mach::MachineKind::LogPC);

    std::printf("\n# %s: execution-time error vs target, percent\n",
                app.c_str());
    std::printf("%6s %18s %18s %18s\n", "procs", "net-only(logp+dir)",
                "loc-only(target+ic)", "both(logp+c)");
    for (const core::SeriesPoint &pt : result.figure.points)
        std::printf("%6u %+18.2f %+18.2f %+18.2f\n", pt.procs,
                    errorPct(pt.values[logp_dir], pt.values[target]),
                    errorPct(pt.values[target_ic], pt.values[target]),
                    errorPct(pt.values[logp_c], pt.values[target]));
    std::printf("\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    core::Settings settings;
    settings.maxProcs = 16;
    if (!bench::parseSettings(core::kSweep, argc, argv, settings))
        return 2;

    int rc = 0;
    for (const char *app : {"ep", "is"}) {
        const int app_rc = runApp(app, settings);
        if (app_rc != 0)
            rc = app_rc;
    }
    if (rc == 0 && !settings.shard.sharded())
        std::printf("# Reading: EP (computation bound) keeps every error"
                    " near zero; on IS the\n# single-axis quadrants"
                    " attribute logp+c's disagreement between the\n"
                    "# network abstraction (logp+dir) and the locality"
                    " abstraction (target+ic).\n");
    return rc;
}
