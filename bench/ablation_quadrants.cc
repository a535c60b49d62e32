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
/// Supports --jobs N / ABSIM_JOBS (worker pool, byte-identical output),
/// --shard K/N / ABSIM_SHARD (run one shard of each sweep; the error
/// table needs the full grid and is skipped), ABSIM_JOURNAL_DIR
/// (checkpoint each app's sweep) and the ABSIM_MAX_PROCS / ABSIM_SIZE
/// knobs of the figure benches.  Malformed numeric values exit 2 with
/// a diagnostic.
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
runApp(const std::string &app, unsigned jobs, core::ShardSpec shard)
{
    core::RunConfig base;
    base.app = app;
    base.params.n = core::envUint("ABSIM_SIZE", base.params.n, 1);

    const std::uint32_t max_procs = static_cast<std::uint32_t>(
        core::envUint("ABSIM_MAX_PROCS", 16, 1, 1u << 20));

    std::vector<std::uint32_t> procs;
    for (const std::uint32_t p : core::defaultProcCounts())
        if (p <= max_procs)
            procs.push_back(p);

    core::SweepOptions options;
    options.jobs = jobs;
    options.shard = shard;
    options.machines = mach::allQuadrants();
    if (const char *dir = core::envString("ABSIM_JOURNAL_DIR")) {
        std::string stem = "quadrants_" + app + "_full_exec_time";
        if (shard.sharded())
            stem += ".shard" + std::to_string(shard.index) + "of" +
                    std::to_string(shard.count);
        options.journalPath =
            std::string(dir) + "/" + stem + ".journal.jsonl";
    }

    const core::SweepResult result = core::sweepFigureSafe(
        "Quadrant ablation: " + app + " on full: execution time", base,
        net::TopologyKind::Full, core::Metric::ExecTime, procs, options);
    core::printFigure(std::cout, result.figure);
    for (const core::FailedPoint &f : result.failures)
        std::fprintf(stderr,
                     "failed point: procs=%u machine=%s error=%s: %s\n",
                     f.procs, f.machine.c_str(), f.error.c_str(),
                     f.message.c_str());
    if (!result.complete())
        return 3;

    // A shard's figure is partial (unowned cells read 0.0); the error
    // table only means something on the merged full grid.
    if (shard.sharded())
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
    unsigned jobs = 1;
    core::ShardSpec shard;
    if (!bench::parseSweepFlags(argc, argv, jobs, shard))
        return 2;

    int rc = 0;
    for (const char *app : {"ep", "is"}) {
        const int app_rc = runApp(app, jobs, shard);
        if (app_rc != 0)
            rc = app_rc;
    }
    if (rc == 0 && !shard.sharded())
        std::printf("# Reading: EP (computation bound) keeps every error"
                    " near zero; on IS the\n# single-axis quadrants"
                    " attribute logp+c's disagreement between the\n"
                    "# network abstraction (logp+dir) and the locality"
                    " abstraction (target+ic).\n");
    return rc;
}
