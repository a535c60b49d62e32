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

#include <iosfwd>
#include <string>
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

std::string toString(Metric metric);

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

/** The JSON/CSV/journal column keys for @p machines (registry column
 *  names, e.g. "logpc"). */
std::vector<std::string>
machineColumns(const std::vector<mach::MachineKind> &machines);

/** The processor counts the benches sweep (paper: powers of two). */
std::vector<std::uint32_t> defaultProcCounts();

/** Extract the figure metric (in microseconds) from a profile. */
double metricValue(const stats::Profile &profile, Metric metric);

/**
 * Run the sweep for one figure: every machine in @p machines at each P
 * (empty = the classic trio).
 *
 * The raw sweep: any failed point aborts the whole figure by
 * exception.  Prefer sweepFigureSafe() for anything long-running.
 *
 * @param base  App/params template; machine, topology and P are overridden.
 */
Figure sweepFigure(const std::string &title, const RunConfig &base,
                   net::TopologyKind topology, Metric metric,
                   const std::vector<std::uint32_t> &proc_counts,
                   const std::vector<mach::MachineKind> &machines = {});

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
     * Worker threads running the sweep's (point x machine) runs.
     * 0 (the default) = auto: honor the ABSIM_JOBS environment
     * variable, else run serially; 1 pins the sweep serial.  Any value
     * produces byte-identical figure JSON and journal contents
     * (results are keyed by sweep position and the journal commits
     * them in sweep order; see docs/PARALLELISM.md).  Note an armed
     * fault plan only applies to a serial sweep: plans are per-thread
     * and do not propagate to pool workers.
     */
    unsigned jobs = 0;

    /**
     * Machines to sweep, in column order.  Empty (the default) means
     * the paper's classic trio; journals written for a non-default set
     * carry the machine list in their header, so a journal never
     * resumes a sweep with different columns.
     */
    std::vector<mach::MachineKind> machines;

    /**
     * Which shard of the sweep this process runs (--shard K/N,
     * ABSIM_SHARD).  Work items are the (point x machine) runs indexed
     * row-major (point-major, machine-minor) over the full grid; shard
     * {K, N} runs exactly the items whose index is congruent to K mod
     * N.  The default {0, 1} is the unsharded sweep: it owns every
     * item.
     *
     * A sharded sweep returns a partial figure (only the points whose
     * owned runs all succeeded; unowned columns read 0.0) — its real
     * product is the shard journal, which records one single-column
     * record per owned item and stamps "shard":"K/N" in its header.
     * core::mergeJournals() reassembles the N shard journals into a
     * journal byte-identical to the unsharded serial sweep's, from
     * which a replaying re-run emits byte-identical figure JSON/CSV.
     */
    ShardSpec shard;
};

/**
 * Resilient sweep: like sweepFigure(), but each run goes through
 * runOneSafe().  A failed run is recorded in the failure manifest and
 * drops its point from the figure, and the sweep continues; with a
 * journal path set, finished work checkpoints to disk and re-runs
 * resume from the journal.
 *
 * One executor for every shard spec: the work items options.shard owns
 * (all of them unsharded) run on a fixed pool of options.jobs threads
 * (see core::runManySafe for the isolation model), and each item keeps
 * only its metric value or its failure.  Only two steps depend on the
 * shard count:
 *   - resume: a shard journal answers its items positionally, a serial
 *     journal answers whole points keyed by procs (a failed point cut
 *     short by a crash finishes its unjournaled machines);
 *   - commit: a shard appends one record per item, the unsharded sweep
 *     a point's serial records (core::serialPointRecords) once its last
 *     item passes the in-order frontier.
 * Output — figure, failure manifest, journal bytes, exit semantics — is
 * byte-identical for every jobs value and every crash-and-resume point:
 * results assemble in sweep order and records commit in sweep order, so
 * even a crash leaves a resumable journal prefix.
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
