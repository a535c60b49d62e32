/**
 * @file
 * Shared main() body for the per-figure bench binaries.
 *
 * Every figure bench sweeps P over the paper's processor counts for one
 * (application, topology, metric) combination and prints the three
 * machine curves.  The sweep runs under the resilient harness
 * (core::sweepFigureSafe): a failed point is reported and the rest of
 * the figure still completes, and with a journal directory set an
 * interrupted sweep resumes from its checkpoint.  Environment knobs
 * (numeric values are validated — garbage or out-of-range input is a
 * named diagnostic and exit 2, never a silent fallback):
 *   ABSIM_MAX_PROCS     cap the sweep (default 32)
 *   ABSIM_SIZE          override the app problem size
 *   ABSIM_CSV_DIR       additionally write <dir>/<app>_<net>_<metric>.csv
 *   ABSIM_JSON_DIR      write <dir>/<app>_<net>_<metric>.json (figure +
 *                       failures) and, if any point failed, the failure
 *                       manifest <dir>/<app>_<net>_<metric>.failures.json
 *   ABSIM_JOURNAL_DIR   checkpoint to <dir>/<app>_<net>_<metric>.journal.jsonl
 *   ABSIM_MAX_EVENTS    per-run event budget (0 = unlimited)
 *   ABSIM_WALL_SECONDS  per-run wall-clock budget (0 = unlimited)
 *   ABSIM_STALL_LIMIT   dispatches without sim-time progress before the
 *                       livelock watchdog fires (default 10000000)
 *   ABSIM_FAIL_TRACE    comma-separated sim trace categories (protocol,
 *                       network, logp, runtime, all) captured per run
 *                       into a bounded in-memory sink; a failed point
 *                       embeds the trace tail in the failure manifest
 *                       and the journal (default: no capture)
 *   ABSIM_JOBS          worker threads for the sweep (default 1); the
 *                       --jobs N flag overrides it.  Output is
 *                       byte-identical for every value — see
 *                       docs/PARALLELISM.md.
 *   ABSIM_SHARD         run one shard of the sweep, "K/N" (default the
 *                       whole sweep); the --shard K/N flag overrides
 *                       it.  A shard suffixes its journal/CSV/JSON
 *                       stems with .shard<K>of<N> and its journal is
 *                       merged back with the journal_merge tool — see
 *                       docs/PARALLELISM.md.
 *   ABSIM_REPLAY        1 = run every point in trace-replay mode with
 *                       record-on-miss (first sweep executes and
 *                       records; later sweeps replay the stored traces
 *                       through the figure's machines).  The --replay
 *                       flag is equivalent; --record forces
 *                       execute-and-record.  See docs/TRACING.md.
 *   ABSIM_TRACE_DIR     trace store for replay/record mode (default
 *                       "traces"); --trace-dir overrides.
 *
 * Exit status: 0 on a complete figure, 3 if any point failed, 2 on a
 * bad command line or environment value.
 */

#ifndef ABSIM_BENCH_FIG_COMMON_HH
#define ABSIM_BENCH_FIG_COMMON_HH

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "core/env.hh"
#include "core/figures.hh"
#include "sim/trace.hh"

namespace absim::bench {

namespace detail {

/** Shared flag scanner: --jobs/-j, (optionally) --shard, and
 *  (optionally) --replay/--record/--trace-dir.  Returns false after
 *  printing usage on an unknown flag or malformed value. */
inline bool
parseFlags(int argc, char **argv, unsigned &jobs, core::ShardSpec *shard,
           core::RunMode *mode = nullptr,
           std::string *trace_dir = nullptr)
{
    jobs = static_cast<unsigned>(
        core::envUint("ABSIM_JOBS", jobs, 1, 4096));
    if (shard != nullptr)
        *shard = core::envShard("ABSIM_SHARD");
    std::string usage = " [--jobs N]";
    if (shard != nullptr)
        usage += " [--shard K/N]";
    if (mode != nullptr)
        usage += " [--replay | --record] [--trace-dir DIR]";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char *value = nullptr;
        if (arg == "--jobs" || arg == "-j") {
            if (i + 1 < argc)
                value = argv[++i];
        } else if (arg.rfind("--jobs=", 0) == 0) {
            value = arg.c_str() + 7;
        } else if (shard != nullptr &&
                   (arg == "--shard" || arg.rfind("--shard=", 0) == 0)) {
            const char *spec = nullptr;
            if (arg == "--shard") {
                if (i + 1 < argc)
                    spec = argv[++i];
            } else {
                spec = arg.c_str() + 8;
            }
            if (spec == nullptr || !core::ShardSpec::parse(spec, *shard)) {
                std::cerr << argv[0]
                          << ": --shard expects K/N with 0 <= K < N\n";
                return false;
            }
            continue;
        } else if (mode != nullptr && arg == "--replay") {
            *mode = core::RunMode::Replay;
            continue;
        } else if (mode != nullptr && arg == "--record") {
            *mode = core::RunMode::Record;
            continue;
        } else if (trace_dir != nullptr &&
                   (arg == "--trace-dir" ||
                    arg.rfind("--trace-dir=", 0) == 0)) {
            const char *dir = nullptr;
            if (arg == "--trace-dir") {
                if (i + 1 < argc)
                    dir = argv[++i];
            } else {
                dir = arg.c_str() + 12;
            }
            if (dir == nullptr || *dir == '\0') {
                std::cerr << argv[0]
                          << ": --trace-dir expects a directory\n";
                return false;
            }
            *trace_dir = dir;
            continue;
        } else {
            std::cerr << "usage: " << argv[0] << usage << "\n";
            return false;
        }
        std::uint64_t v = 0;
        if (value == nullptr || !core::parseUint(value, v) || v == 0 ||
            v > 4096) {
            std::cerr << argv[0] << ": --jobs expects a positive count\n";
            return false;
        }
        jobs = static_cast<unsigned>(v);
    }
    return true;
}

} // namespace detail

/**
 * Parse the sweep's worker-thread count: ABSIM_JOBS provides the
 * default, --jobs N (or --jobs=N) overrides it.  Returns false (after
 * printing usage) on an unknown flag or a malformed count.
 */
inline bool
parseJobs(int argc, char **argv, unsigned &jobs)
{
    return detail::parseFlags(argc, argv, jobs, nullptr);
}

/** parseJobs plus the --shard K/N flag (ABSIM_SHARD provides the
 *  default).  Same usage-and-false contract on malformed input. */
inline bool
parseSweepFlags(int argc, char **argv, unsigned &jobs,
                core::ShardSpec &shard)
{
    return detail::parseFlags(argc, argv, jobs, &shard);
}

inline int
runFigureMain(const std::string &title, const std::string &app,
              net::TopologyKind topology, core::Metric metric,
              int argc = 0, char **argv = nullptr)
{
    unsigned jobs = 1;
    core::ShardSpec shard;
    // Env defaults, overridable by --replay/--record/--trace-dir.
    core::RunMode mode = core::envUint("ABSIM_REPLAY", 0, 0, 1) != 0
                             ? core::RunMode::Replay
                             : core::RunMode::Execute;
    std::string trace_dir = "traces";
    if (const char *dir = core::envString("ABSIM_TRACE_DIR"))
        trace_dir = dir;
    if (argv != nullptr &&
        !detail::parseFlags(argc, argv, jobs, &shard, &mode, &trace_dir))
        return 2;
    if (argv == nullptr)
        shard = core::envShard("ABSIM_SHARD");

    core::RunConfig base;
    base.app = app;
    base.mode = mode;
    base.traceDir = trace_dir;
    base.params.n = core::envUint("ABSIM_SIZE", base.params.n, 1);

    const std::uint32_t max_procs = static_cast<std::uint32_t>(
        core::envUint("ABSIM_MAX_PROCS", 32, 1, 1u << 20));

    std::vector<std::uint32_t> procs;
    for (const std::uint32_t p : core::defaultProcCounts())
        if (p <= max_procs)
            procs.push_back(p);

    // A shard's artifacts carry the spec in their names so N shard
    // processes sharing one output directory never collide, and the
    // merged journal can land at the unsharded stem.
    std::string stem = app + "_" + net::toString(topology) + "_" +
                       core::toString(metric);
    if (shard.sharded())
        stem += ".shard" + std::to_string(shard.index) + "of" +
                std::to_string(shard.count);

    core::SweepOptions options;
    if (const char *dir = core::envString("ABSIM_JOURNAL_DIR"))
        options.journalPath =
            std::string(dir) + "/" + stem + ".journal.jsonl";
    options.policy.budget.maxEvents =
        core::envUint("ABSIM_MAX_EVENTS", options.policy.budget.maxEvents);
    options.policy.budget.maxWallSeconds = core::envDouble(
        "ABSIM_WALL_SECONDS", options.policy.budget.maxWallSeconds);
    options.policy.budget.stallDispatchLimit = core::envUint(
        "ABSIM_STALL_LIMIT", options.policy.budget.stallDispatchLimit);
    if (const char *cats = core::envString("ABSIM_FAIL_TRACE")) {
        if (!sim::parseTraceMask(cats, options.policy.traceMask)) {
            std::cerr << "error: invalid ABSIM_FAIL_TRACE value '" << cats
                      << "' (want comma-separated protocol, network, "
                         "logp, runtime or all)\n";
            return 2;
        }
    }
    options.jobs = jobs;
    options.shard = shard;

    const core::SweepResult result = core::sweepFigureSafe(
        title, base, topology, metric, procs, options);
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
    return result.complete() ? 0 : 3;
}

} // namespace absim::bench

#endif // ABSIM_BENCH_FIG_COMMON_HH
