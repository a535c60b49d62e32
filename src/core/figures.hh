/**
 * @file
 * Figure harness: regenerate the paper's figure series.
 *
 * Every figure in the paper's evaluation is a curve of one metric
 * (execution time, latency overhead, or contention overhead) against the
 * processor count, with one curve per machine characterization.  This
 * header provides the sweep and the printer the bench binaries share.
 *
 * The machine set is parameterized: the classic figures sweep the
 * paper's three machines (target, logp, logp+c — the default), while
 * the quadrant ablation sweeps all five registry compositions through
 * the same engine.  Column order follows the machine list everywhere
 * (figure points, CSV, JSON, journal records).
 */

#ifndef ABSIM_CORE_FIGURES_HH
#define ABSIM_CORE_FIGURES_HH

#include <array>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hh"
#include "core/journal.hh"
#include "trace_replay/divergence.hh"

namespace absim::core {

/** Which overhead the figure plots (paper Section 3.3 semantics). */
enum class Metric
{
    ExecTime,   ///< Max over processors of completion time.
    Latency,    ///< Per-processor mean latency overhead.
    Contention, ///< Per-processor mean contention overhead.
};

/** Each Metric's name, indexed by enumerator: what toString() prints
 *  and what the `metric` setting (core/run_settings.hh) reads. */
inline constexpr std::array<std::string_view, 3> kMetricNames = {
    "exec_time", "latency", "contention"};

/** The metric's name from kMetricNames. */
std::string toString(Metric metric);

/** One figure of the paper's evaluation: one application on one
 *  network, one metric swept over P for every machine. */
struct FigureSpec
{
    std::uint32_t number; ///< The paper's figure number, 1..20.
    std::string_view app;
    net::TopologyKind topology;
    Metric metric;
};

/** The paper's 20 figures: row i is Figure i + 1.  figures.cc gives
 *  each row the curve shape the paper reports. */
extern const std::array<FigureSpec, 20> kFigures;

/** The figure's name, "<app>_<net>_<metric>" with exec_time spelled
 *  exec: "is_full_exec". */
std::string figureName(const FigureSpec &figure);

/** The figure's title: "Figure 14: IS on Full: Execution Time". */
std::string figureTitle(const FigureSpec &figure);

/** The stem of the figure's output files, "<app>_<net>_<metric>":
 *  "is_full_exec_time". */
std::string figureStem(const FigureSpec &figure);

/** The row @p text names by number ("14") or by figureName()
 *  ("is_full_exec"); nullptr if none does. */
const FigureSpec *findFigure(std::string_view text);

/** One point of a figure: the metric for every swept machine at P,
 *  in the figure's machine order. */
struct SeriesPoint
{
    std::uint32_t procs = 0;
    std::vector<double> values;
};

/** A complete figure. */
struct Figure
{
    std::string title;
    std::string app;
    net::TopologyKind topology = net::TopologyKind::Full;
    Metric metric = Metric::ExecTime;

    /** Swept machines, one per value column.  Empty means the paper's
     *  classic trio (target, logp, logp+c). */
    std::vector<mach::MachineKind> machines;

    std::vector<SeriesPoint> points;
};

/** @p figure's machine list with the empty default resolved. */
std::vector<mach::MachineKind> figureMachines(const Figure &figure);

/** The JSON/CSV column keys for @p machines (registry column
 *  names, e.g. "logpc"). */
std::vector<std::string>
machineColumns(const std::vector<mach::MachineKind> &machines);

/** The processor counts the benches sweep (paper: powers of two). */
std::vector<std::uint32_t> defaultProcCounts();

/** The defaultProcCounts() no larger than @p max: a sweep's P list. */
std::vector<std::uint32_t> procCountsUpTo(std::uint32_t max);

/** Extract the figure metric (in microseconds) from a profile. */
double metricValue(const stats::Profile &profile, Metric metric);

/** One point (or machine run) the resilient sweep could not produce. */
struct FailedPoint
{
    std::uint32_t procs = 0;
    std::string machine; ///< Canonical machine name, e.g. "logp+c".
    std::string error;   ///< RunErrorKind name.
    std::string message; ///< One-line summary.
    std::string trace;   ///< Bounded trace tail (RunPolicy::traceMask);
                         ///< "" when capture was off.
};

/** Outcome of a resilient sweep: the completed curve + what failed. */
struct SweepResult
{
    Figure figure;
    std::vector<FailedPoint> failures;

    bool complete() const { return failures.empty(); }
};

/** Knobs of the resilient sweep. */
struct SweepOptions
{
    /** Budget/retry policy applied to every point (see RunPolicy). */
    RunPolicy policy;

    /**
     * Checkpoint journal path; "" disables checkpointing.  Finished
     * work (successes and failures) is appended as it passes the
     * in-order frontier and skipped on re-run, so an interrupted sweep
     * resumes instead of starting over (see core/journal.hh for the
     * format and the byte-identical-resume guarantee).
     */
    std::string journalPath;

    /**
     * Worker threads running the sweep's (point x machine) runs; 0 or
     * 1 runs serially.  Any value produces byte-identical figure JSON
     * and journal contents (results are keyed by sweep position and
     * the journal commits them in sweep order; see
     * docs/PARALLELISM.md).  Note an armed
     * fault plan only applies to a serial sweep: plans are per-thread
     * and do not propagate to pool workers.
     */
    unsigned jobs = 1;

    /**
     * Machines to sweep, in column order.  Empty (the default) means
     * the paper's classic trio.  The journal header stamps the machine
     * list, so a journal never resumes a sweep of other machines.
     */
    std::vector<mach::MachineKind> machines;

    /**
     * Which shard of the sweep this process runs (the `shard`
     * setting).  Work items are the (point x machine) runs indexed
     * row-major (point-major, machine-minor) over the full grid; shard
     * {K, N} runs exactly the items whose index is congruent to K mod
     * N.  The default {0, 1} is the unsharded sweep: it owns every
     * item.
     *
     * A sharded sweep returns a partial figure (only the points whose
     * owned runs all succeeded; unowned columns read 0.0) — its real
     * product is the shard journal, which holds one record per owned
     * item and stamps "shard":"K/N" in its header.
     * core::mergeJournals() interleaves the N shard journals into the
     * 0/1 journal, byte-identical to the unsharded sweep's, from which
     * a replaying re-run emits byte-identical figure JSON/CSV.
     */
    ShardSpec shard;
};

/**
 * Run the sweep for one figure: every machine in options.machines at
 * each P of @p proc_counts (no machines = the classic trio), @p base
 * giving the app and its params (machine, topology and P are
 * overridden).  Each run goes through runOneSafe().  A failed run is
 * recorded in the failure manifest and drops its point from the
 * figure, and the sweep continues; with a journal path set, finished
 * work checkpoints to disk and re-runs resume from the journal.
 *
 * One executor for every shard spec (the unsharded sweep is shard
 * 0/1): the work items options.shard owns run on a fixed pool of
 * options.jobs threads (see core::runManySafe for the isolation model),
 * and each item keeps only its journal record, its metric value or its
 * failure.  The journal answers a prefix of the owned items
 * positionally, and each fresh item appends one record once it passes
 * the in-order frontier.  Output — figure, failure manifest, journal
 * bytes, exit semantics — is byte-identical for every jobs value and
 * every crash-and-resume point: results assemble in sweep order and
 * records commit in sweep order, so even a crash leaves a resumable
 * journal prefix.
 */
SweepResult sweepFigureSafe(const std::string &title, const RunConfig &base,
                            net::TopologyKind topology, Metric metric,
                            const std::vector<std::uint32_t> &proc_counts,
                            const SweepOptions &options = {});

/** Print the figure in the benches' common tabular format. */
void printFigure(std::ostream &os, const Figure &figure);

/** Write the figure as CSV (procs plus one column per machine). */
void writeFigureCsv(std::ostream &os, const Figure &figure);

/**
 * Write figure + failures as one JSON document.  Deterministic: a
 * sweep resumed from its journal emits byte-identical output to an
 * uninterrupted run.
 */
void writeFigureJson(std::ostream &os, const SweepResult &result);

/** Write just the failure manifest as a JSON document. */
void writeFailureManifest(std::ostream &os, const Figure &figure,
                          const std::vector<FailedPoint> &failures);

/**
 * Compare an execution-driven figure against its replayed counterpart
 * point by point (same machine order and proc counts required; extra
 * or missing points simply do not pair up and are skipped).  For
 * feedback-negligible figures the report comes back identical == true;
 * for feedback-sensitive ones it quantifies the replay error.  See
 * docs/TRACING.md.
 */
trace::DivergenceReport compareFigures(const Figure &executed,
                                       const Figure &replayed);

} // namespace absim::core

#endif // ABSIM_CORE_FIGURES_HH
