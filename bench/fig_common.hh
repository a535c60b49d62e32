/**
 * @file
 * The sweep and settings parsing shared by the figure program
 * (figure.cc), the ablation program (ablation.cc) and
 * ablation_quadrants.
 *
 * `figure --figure N` sweeps P over the paper's processor counts for
 * one row of core::kFigures (an application, topology and metric) and
 * prints the machine curves.  The sweep runs under the resilient
 * harness (core::sweepFigureSafe): a failed point is reported and the
 * rest of the figure still completes, and with a journal directory set
 * an interrupted sweep resumes from its checkpoint.
 *
 * Settings (figure, size, max_procs, the budgets, trace, jobs, shard,
 * mode, trace_dir) are rows of the run-settings table, each a --flag
 * or an ABSIM_* variable; docs/API.md tables them.  Output paths are
 * not settings:
 *   ABSIM_CSV_DIR       additionally write <dir>/<stem>.csv
 *   ABSIM_JSON_DIR      write <dir>/<stem>.json (figure + failures)
 *                       and, if any point failed, the failure manifest
 *                       <dir>/<stem>.failures.json
 *   ABSIM_JOURNAL_DIR   checkpoint to <dir>/<stem>.journal.jsonl
 * where <stem> is <app>_<net>_<metric> (core::figureStem), suffixed
 * .shard<K>of<N> for a shard.
 *
 * Exit status: 0 on a complete figure, 3 if any point failed, 2 on a
 * bad command line or environment value.
 */

#ifndef ABSIM_BENCH_FIG_COMMON_HH
#define ABSIM_BENCH_FIG_COMMON_HH

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/env.hh"
#include "core/run_settings.hh"

namespace absim::bench {

/** Print @p error and the usage of the rows @p takers take; main then
 *  exits 2. */
inline void
printUsageError(const std::string &error, unsigned takers, int argc,
                char **argv)
{
    std::cerr << "error: " << error << "\n\nusage: "
              << (argc > 0 ? argv[0] : "bench") << " [options]\n"
              << core::runSettingsUsage(takers);
}

/**
 * Apply the settings the @p takers programs take from the environment
 * and argv into @p out.  On a bad value or an unknown argument, print
 * the diagnostic and the usage and return false: main exits 2.  The
 * sweep benches also refuse the variables they read before these were
 * settings, rather than run without the budget, trace or mode asked
 * for.
 */
inline bool
parseSettings(unsigned takers, int argc, char **argv, core::Settings &out)
{
    static const char *const kRenamed[][2] = {
        {"ABSIM_WALL_SECONDS", "ABSIM_DEADLINE_S"},
        {"ABSIM_FAIL_TRACE", "ABSIM_TRACE"},
        {"ABSIM_REPLAY", "ABSIM_MODE=replay"},
    };
    std::string error;
    for (const auto &[old_name, new_name] : kRenamed)
        if ((takers & core::kSweep) != 0 &&
            core::envString(old_name) != nullptr) {
            error = std::string(old_name) + " is no longer read; set " +
                    new_name + " instead";
            break;
        }
    if (error.empty() &&
        core::applySettings(takers, argc, argv, out, error))
        return true;
    printUsageError(error, takers, argc, argv);
    return false;
}

/**
 * Sweep @p settings.config over the default processor counts up to
 * settings.maxProcs on @p machines (empty = the classic trio), print
 * the figure and its failed points, and write the artifacts named
 * @p stem (a shard's suffixed with its spec, so N shard processes
 * sharing one output directory never collide and the merged journal
 * lands at the unsharded stem).
 */
inline core::SweepResult
runFigure(const std::string &title, std::string stem,
          const core::Settings &settings, net::TopologyKind topology,
          core::Metric metric,
          const std::vector<mach::MachineKind> &machines = {})
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
    options.machines = machines;
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

} // namespace absim::bench

#endif // ABSIM_BENCH_FIG_COMMON_HH
