/// The paper's figures: sweep one row of core::kFigures over P.
///
///   figure --figure 14              (Figure 14, by number)
///   figure --figure is_full_exec    (the same figure, by name)
///   ABSIM_FIGURE=14 figure
///
/// Each figure is one application on one network with one overhead
/// metric, swept over the paper's processor counts on the classic
/// machine trio; src/core/figures.cc lists the 20 rows with the curve
/// shape the paper reports for each.  The sweep runs under the
/// resilient harness (core::sweepFigureSafe): a failed point is
/// reported and the rest of the figure still completes, and with a
/// journal directory set an interrupted sweep resumes from its
/// checkpoint.
///
/// Settings (figure, size, max_procs, the budgets, trace, jobs, shard,
/// mode, trace_dir) are rows of the run-settings table, each a --flag
/// or an ABSIM_* variable; docs/API.md tables them.  Output paths are
/// not settings:
///   ABSIM_CSV_DIR       additionally write <dir>/<stem>.csv
///   ABSIM_JSON_DIR      write <dir>/<stem>.json (figure + failures)
///                       and, if any point failed, the failure manifest
///                       <dir>/<stem>.failures.json
///   ABSIM_JOURNAL_DIR   checkpoint to <dir>/<stem>.journal.jsonl
/// where <stem> is <app>_<net>_<metric> (core::figureStem), suffixed
/// .shard<K>of<N> for a shard.
///
/// Exit status: 0 on a complete figure, 3 if any point failed, 2 on a
/// bad command line or environment value.
#include <fstream>
#include <iostream>
#include <string>

#include "fig_common.hh"

namespace {

using namespace absim;

/**
 * Sweep @p settings.config over the default processor counts up to
 * settings.maxProcs on the classic trio, print the figure and its
 * failed points, and write the artifacts named @p stem (a shard's
 * suffixed with its spec, so N shard processes sharing one output
 * directory never collide and the merged journal lands at the
 * unsharded stem).
 */
core::SweepResult
runFigure(const std::string &title, std::string stem,
          const core::Settings &settings, net::TopologyKind topology,
          core::Metric metric)
{
    const core::ShardSpec &shard = settings.shard;
    if (shard.sharded())
        stem += ".shard" + std::to_string(shard.index) + "of" +
                std::to_string(shard.count);

    core::SweepOptions options;
    if (const char *dir = core::envString("ABSIM_JOURNAL_DIR"))
        options.journalPath =
            std::string(dir) + "/" + stem + ".journal.jsonl";
    options.policy = settings.policy;
    options.jobs = settings.jobs;
    options.shard = shard;

    core::SweepResult result = core::sweepFigureSafe(
        title, settings.config, topology, metric,
        core::procCountsUpTo(settings.maxProcs), options);
    core::printFigure(std::cout, result.figure);

    for (const core::FailedPoint &f : result.failures)
        std::cerr << "failed point: procs=" << f.procs << " machine="
                  << f.machine << " error=" << f.error << ": " << f.message
                  << "\n";

    if (const char *dir = core::envString("ABSIM_CSV_DIR")) {
        const std::string path = std::string(dir) + "/" + stem + ".csv";
        std::ofstream csv(path);
        if (csv)
            core::writeFigureCsv(csv, result.figure);
        else
            std::cerr << "warning: cannot write " << path << "\n";
    }
    if (const char *dir = core::envString("ABSIM_JSON_DIR")) {
        const std::string path = std::string(dir) + "/" + stem + ".json";
        std::ofstream json(path);
        if (json)
            core::writeFigureJson(json, result);
        else
            std::cerr << "warning: cannot write " << path << "\n";
        if (!result.complete()) {
            const std::string manifest_path =
                std::string(dir) + "/" + stem + ".failures.json";
            std::ofstream manifest(manifest_path);
            if (manifest)
                core::writeFailureManifest(manifest, result.figure,
                                           result.failures);
            else
                std::cerr << "warning: cannot write " << manifest_path
                          << "\n";
        }
    }
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    core::Settings settings;
    if (!bench::parseSettings(core::kFigure, argc, argv, settings))
        return 2;
    const core::FigureSpec *figure = settings.figure;
    if (figure == nullptr) {
        bench::printUsageError(
            "no figure chosen: set --figure or ABSIM_FIGURE (valid: " +
                core::findRunSetting("figure")->valid + ")",
            core::kFigure, argc, argv);
        return 2;
    }
    settings.config.app = figure->app;
    return runFigure(core::figureTitle(*figure), core::figureStem(*figure),
                     settings, figure->topology, figure->metric)
                   .complete()
               ? 0
               : 3;
}
