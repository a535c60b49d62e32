#include "core/figures.hh"

#include <cstdio>
#include <iomanip>
#include <map>
#include <optional>
#include <ostream>
#include <stdexcept>

#include "core/env.hh"
#include "machines/registry.hh"

namespace absim::core {

std::string
toString(Metric metric)
{
    switch (metric) {
      case Metric::ExecTime:
        return "exec_time";
      case Metric::Latency:
        return "latency";
      case Metric::Contention:
        return "contention";
    }
    return "?";
}

std::vector<mach::MachineKind>
figureMachines(const Figure &figure)
{
    if (figure.machines.empty())
        return mach::defaultFigureMachines();
    return figure.machines;
}

std::vector<std::string>
machineColumns(const std::vector<mach::MachineKind> &machines)
{
    std::vector<std::string> columns;
    columns.reserve(machines.size());
    for (const mach::MachineKind kind : machines)
        columns.emplace_back(mach::specFor(kind).column);
    return columns;
}

std::vector<std::uint32_t>
defaultProcCounts()
{
    return {1, 2, 4, 8, 16, 32};
}

double
metricValue(const stats::Profile &profile, Metric metric)
{
    switch (metric) {
      case Metric::ExecTime:
        return static_cast<double>(profile.execTime()) / 1000.0;
      case Metric::Latency:
        return profile.meanLatency() / 1000.0;
      case Metric::Contention:
        return profile.meanContention() / 1000.0;
    }
    return 0.0;
}

namespace {

/** Resolve the empty machine-list default in one place. */
std::vector<mach::MachineKind>
resolveMachines(const std::vector<mach::MachineKind> &machines)
{
    if (machines.empty())
        return mach::defaultFigureMachines();
    return machines;
}

/** True if @p machines is the classic trio (whose journals stay in the
 *  legacy header layout for byte-compatible resume). */
bool
isDefaultMachineSet(const std::vector<mach::MachineKind> &machines)
{
    return machines == mach::defaultFigureMachines();
}

} // namespace

Figure
sweepFigure(const std::string &title, const RunConfig &base,
            net::TopologyKind topology, Metric metric,
            const std::vector<std::uint32_t> &proc_counts,
            const std::vector<mach::MachineKind> &machines)
{
    Figure figure;
    figure.title = title;
    figure.app = base.app;
    figure.topology = topology;
    figure.metric = metric;
    figure.machines = resolveMachines(machines);

    for (const std::uint32_t p : proc_counts) {
        SeriesPoint point;
        point.procs = p;
        RunConfig config = base;
        config.topology = topology;
        config.procs = p;

        for (const mach::MachineKind kind : figure.machines) {
            config.machine = kind;
            point.values.push_back(metricValue(runOne(config), metric));
        }
        figure.points.push_back(std::move(point));
    }
    return figure;
}

namespace {

/** What one sweep point produced: a complete SeriesPoint, or the
 *  per-machine failures that kept it out of the curve. */
struct PointOutcome
{
    SeriesPoint point;
    std::vector<FailedPoint> failures;
};

/** Resolve SweepOptions::jobs: 0 = auto (ABSIM_JOBS, else serial). */
unsigned
resolveJobs(unsigned jobs)
{
    if (jobs != 0)
        return jobs;
    return static_cast<unsigned>(envUint("ABSIM_JOBS", 1, 1, 4096));
}

/** Open the sweep's journal for appending: resume an intact matching
 *  journal (truncating any torn tail away first), start a fresh one
 *  otherwise.  A journal that cannot be opened disables checkpointing
 *  for the run with a warning rather than failing the sweep. */
void
openJournal(JournalWriter &writer, const std::string &path, bool resumed,
            const JournalResume &info, const JournalHeader &header)
{
    const bool ok = resumed ? writer.resume(path, info.cleanBytes)
                            : writer.start(path, header);
    if (!ok)
        std::fprintf(stderr,
                     "warning: cannot write journal '%s'; sweeping "
                     "without checkpoints\n",
                     path.c_str());
}

/**
 * The sharded executor: runs only the (point x machine) work items the
 * shard owns and journals one positional single-column record per item
 * (see SweepOptions::shard).  Same pool, policy, and in-order-frontier
 * guarantees as the unsharded path, applied per item instead of per
 * point.
 */
SweepResult
sweepFigureSharded(const std::string &title, const RunConfig &base,
                   net::TopologyKind topology, Metric metric,
                   const std::vector<std::uint32_t> &proc_counts,
                   const SweepOptions &options)
{
    const ShardSpec shard = options.shard;
    const std::vector<mach::MachineKind> machines =
        resolveMachines(options.machines);
    const std::vector<std::string> columns = machineColumns(machines);
    const std::size_t machine_count = machines.size();

    SweepResult result;
    result.figure.title = title;
    result.figure.app = base.app;
    result.figure.topology = topology;
    result.figure.metric = metric;
    result.figure.machines = machines;

    // Owned work items, in row-major order.  Item g = p_idx * M + m_idx.
    std::vector<std::size_t> owned;
    for (std::size_t g = 0; g < proc_counts.size() * machine_count; ++g)
        if (shard.owns(g))
            owned.push_back(g);

    // Shard journal headers always stamp the machine columns and the
    // shard spec, so a resume can never cross shards or machine sets.
    JournalHeader header{title, base.app, net::toString(topology),
                         toString(metric), columns, shard};

    /** What one owned item produced (journal replay or fresh run). */
    struct ItemOutcome
    {
        bool failed = false;
        double value = 0.0;
        std::string machine;
        std::string error;
        std::string message;
        std::string trace;
    };
    std::vector<std::optional<ItemOutcome>> items(owned.size());

    // Resume: shard records are positional — the r-th record is owned
    // item r.  A journal that holds more records than the shard owns,
    // or whose procs disagree with the grid, belongs to a different
    // sweep shape and is rewritten from scratch.
    const bool journaling = !options.journalPath.empty();
    JournalWriter writer;
    std::size_t replayed = 0;
    if (journaling) {
        std::vector<JournalRecord> records;
        JournalResume info;
        bool resumed = loadShardJournal(options.journalPath, header,
                                        columns, records, &info);
        if (resumed && records.size() <= owned.size()) {
            for (std::size_t r = 0; resumed && r < records.size(); ++r)
                if (records[r].procs !=
                    proc_counts[owned[r] / machine_count])
                    resumed = false;
        } else {
            resumed = false;
        }
        if (resumed) {
            for (std::size_t r = 0; r < records.size(); ++r) {
                const JournalRecord &rec = records[r];
                ItemOutcome outcome;
                outcome.failed = rec.failed;
                if (rec.failed) {
                    outcome.machine = rec.machine;
                    outcome.error = rec.error;
                    outcome.message = rec.message;
                    outcome.trace = rec.trace;
                } else {
                    outcome.value =
                        rec.values.empty() ? 0.0 : rec.values[0];
                }
                items[r] = outcome;
            }
            replayed = records.size();
        }
        openJournal(writer, options.journalPath, resumed, info, header);
    }

    // Fresh runs for the owned items the journal does not answer.
    std::vector<RunConfig> configs;
    configs.reserve(owned.size() - replayed);
    for (std::size_t r = replayed; r < owned.size(); ++r) {
        RunConfig config = base;
        config.topology = topology;
        config.procs = proc_counts[owned[r] / machine_count];
        config.machine = machines[owned[r] % machine_count];
        configs.push_back(config);
    }

    // In-order frontier, per item: records land in positional order
    // whatever order the pool finishes in, so a crash always leaves a
    // resumable positional prefix.
    std::size_t frontier = replayed;
    auto commitItem = [&](std::size_t r) {
        if (!writer.isOpen())
            return;
        const ItemOutcome &outcome = *items[r];
        const std::size_t g = owned[r];
        const std::uint32_t procs = proc_counts[g / machine_count];
        if (outcome.failed)
            writer.append(JournalRecord{procs, true, {}, outcome.machine,
                                        outcome.error, outcome.message,
                                        outcome.trace},
                          columns);
        else
            writer.append(JournalRecord{procs, false, {outcome.value},
                                        "", "", ""},
                          {columns[g % machine_count]});
    };

    const RunManyCallback onResult = [&](std::size_t i,
                                         const RunResult &run) {
        const std::size_t r = replayed + i;
        ItemOutcome outcome;
        if (run.ok()) {
            outcome.value = metricValue(run.value(), metric);
        } else {
            outcome.failed = true;
            outcome.machine =
                mach::specFor(machines[owned[r] % machine_count]).name;
            outcome.error = toString(run.error().kind);
            outcome.message = run.error().message;
            outcome.trace = run.error().traceExcerpt;
        }
        items[r] = outcome;
        while (frontier < owned.size() && items[frontier]) {
            commitItem(frontier);
            ++frontier;
        }
    };

    (void)runManySafe(configs, options.policy, resolveJobs(options.jobs),
                      onResult);
    writer.close();

    // Partial figure: a point appears once every owned run of it
    // succeeded (unowned columns read 0.0); owned failures go to the
    // manifest and drop the point, and a point with no owned items is
    // simply absent.  The merged journal — not this figure — is the
    // sharded sweep's canonical product.
    for (std::size_t pi = 0; pi < proc_counts.size(); ++pi) {
        SeriesPoint point;
        point.procs = proc_counts[pi];
        point.values.assign(machine_count, 0.0);
        bool any_owned = false;
        bool any_failed = false;
        for (std::size_t mi = 0; mi < machine_count; ++mi) {
            const std::size_t g = pi * machine_count + mi;
            if (!shard.owns(g))
                continue;
            any_owned = true;
            const ItemOutcome &outcome =
                *items[(g - shard.index) / shard.count];
            if (outcome.failed) {
                any_failed = true;
                result.failures.push_back(
                    FailedPoint{point.procs, outcome.machine,
                                outcome.error, outcome.message,
                                outcome.trace});
            } else {
                point.values[mi] = outcome.value;
            }
        }
        if (any_owned && !any_failed)
            result.figure.points.push_back(std::move(point));
    }
    return result;
}

} // namespace

SweepResult
sweepFigureSafe(const std::string &title, const RunConfig &base,
                net::TopologyKind topology, Metric metric,
                const std::vector<std::uint32_t> &proc_counts,
                const SweepOptions &options)
{
    if (!options.shard.valid())
        throw std::invalid_argument("invalid shard spec " +
                                    options.shard.str());
    if (options.shard.sharded())
        return sweepFigureSharded(title, base, topology, metric,
                                  proc_counts, options);
    const std::vector<mach::MachineKind> machines =
        resolveMachines(options.machines);
    const std::vector<std::string> columns = machineColumns(machines);
    const std::size_t machine_count = machines.size();

    SweepResult result;
    result.figure.title = title;
    result.figure.app = base.app;
    result.figure.topology = topology;
    result.figure.metric = metric;
    result.figure.machines = machines;

    // Resume: replay every point the journal already holds.  Journals
    // for the classic trio keep the legacy header (no machine list) so
    // existing checkpoints stay resumable; any other machine set is
    // stamped into the header and never resumes a mismatched sweep.
    JournalHeader header{title, base.app, net::toString(topology),
                         toString(metric), {}, {}};
    if (!isDefaultMachineSet(machines))
        header.machines = columns;
    const bool journaling = !options.journalPath.empty();
    JournalWriter writer;
    std::map<std::uint32_t, SeriesPoint> done;
    std::map<std::uint32_t, std::vector<FailedPoint>> failed;
    if (journaling) {
        std::vector<JournalRecord> records;
        JournalResume info;
        const bool resumed = loadJournal(options.journalPath, header,
                                         columns, records, &info);
        if (resumed) {
            for (JournalRecord &r : records) {
                if (r.failed) {
                    failed[r.procs].push_back(FailedPoint{
                        r.procs, r.machine, r.error, r.message, r.trace});
                } else {
                    done[r.procs] =
                        SeriesPoint{r.procs, std::move(r.values)};
                }
            }
        }
        openJournal(writer, options.journalPath, resumed, info, header);
    }

    // Points the journal does not already answer, in sweep order; one
    // work item per (point, machine) so the pool load-balances across
    // the (much) slower target-machine runs.
    std::vector<std::uint32_t> pending;
    for (const std::uint32_t p : proc_counts)
        if (done.find(p) == done.end() && failed.find(p) == failed.end())
            pending.push_back(p);

    std::vector<RunConfig> configs;
    configs.reserve(pending.size() * machine_count);
    for (const std::uint32_t p : pending) {
        RunConfig config = base;
        config.topology = topology;
        config.procs = p;
        for (const mach::MachineKind kind : machines) {
            config.machine = kind;
            configs.push_back(config);
        }
    }

    std::vector<std::optional<PointOutcome>> outcomes(pending.size());

    // Completion bookkeeping (serialized by runManySafe's callback
    // mutex): assemble a point once all its machine runs are in, and
    // commit journal records through an in-order frontier so the
    // journal's bytes — and its crash-safe prefix property — match the
    // serial sweep's exactly, whatever order the pool finishes in.
    std::vector<std::optional<RunResult>> collected(configs.size());
    std::vector<std::size_t> runsDone(pending.size(), 0);
    std::size_t frontier = 0;

    auto assemblePoint = [&](std::size_t idx) {
        PointOutcome outcome;
        outcome.point.procs = pending[idx];
        outcome.point.values.assign(machine_count, 0.0);
        for (std::size_t mi = 0; mi < machine_count; ++mi) {
            const RunResult &run = *collected[idx * machine_count + mi];
            if (run.ok())
                outcome.point.values[mi] =
                    metricValue(run.value(), metric);
            else
                outcome.failures.push_back(FailedPoint{
                    pending[idx], mach::specFor(machines[mi]).name,
                    toString(run.error().kind), run.error().message,
                    run.error().traceExcerpt});
        }
        return outcome;
    };

    auto commitPoint = [&](std::size_t idx) {
        const PointOutcome &outcome = *outcomes[idx];
        if (!writer.isOpen())
            return;
        if (outcome.failures.empty()) {
            writer.append(JournalRecord{outcome.point.procs, false,
                                        outcome.point.values, "", "", ""},
                          columns);
        } else {
            for (const FailedPoint &f : outcome.failures)
                writer.append(JournalRecord{f.procs, true, {}, f.machine,
                                            f.error, f.message, f.trace},
                              columns);
        }
    };

    const RunManyCallback onResult = [&](std::size_t i,
                                         const RunResult &run) {
        collected[i] = run;
        const std::size_t idx = i / machine_count;
        if (++runsDone[idx] < machine_count)
            return;
        outcomes[idx] = assemblePoint(idx);
        // Release the per-run results as the frontier passes: a long
        // sweep holds at most the out-of-order window's profiles.
        while (frontier < pending.size() && outcomes[frontier]) {
            commitPoint(frontier);
            for (std::size_t mi = 0; mi < machine_count; ++mi)
                collected[frontier * machine_count + mi].reset();
            ++frontier;
        }
    };

    (void)runManySafe(configs, options.policy, resolveJobs(options.jobs),
                      onResult);

    // Assemble the figure in sweep order: journal replays and fresh
    // outcomes interleave exactly as the serial sweep emitted them.
    std::size_t next_pending = 0;
    for (const std::uint32_t p : proc_counts) {
        if (const auto it = done.find(p); it != done.end()) {
            result.figure.points.push_back(it->second);
            continue;
        }
        if (const auto it = failed.find(p); it != failed.end()) {
            // The journal says this point failed; keep the verdict
            // (delete the journal to retry failed points).
            result.failures.insert(result.failures.end(),
                                   it->second.begin(), it->second.end());
            continue;
        }
        const PointOutcome &outcome = *outcomes[next_pending++];
        if (outcome.failures.empty())
            result.figure.points.push_back(outcome.point);
        else
            result.failures.insert(result.failures.end(),
                                   outcome.failures.begin(),
                                   outcome.failures.end());
    }
    return result;
}

void
printFigure(std::ostream &os, const Figure &figure)
{
    const std::vector<mach::MachineKind> machines = figureMachines(figure);
    os << "# " << figure.title << "\n"
       << "# app=" << figure.app
       << " network=" << net::toString(figure.topology)
       << " metric=" << toString(figure.metric) << " (us)\n"
       << std::setw(6) << "procs";
    for (const mach::MachineKind kind : machines)
        os << std::setw(16) << mach::specFor(kind).name;
    os << "\n";
    os << std::fixed << std::setprecision(1);
    for (const SeriesPoint &pt : figure.points) {
        os << std::setw(6) << pt.procs;
        for (std::size_t i = 0; i < machines.size(); ++i)
            os << std::setw(16)
               << (i < pt.values.size() ? pt.values[i] : 0.0);
        os << "\n";
    }
    os.unsetf(std::ios::fixed);
    os << std::setprecision(6);
}

void
writeFigureCsv(std::ostream &os, const Figure &figure)
{
    const std::vector<std::string> columns =
        machineColumns(figureMachines(figure));
    os << "# " << figure.title << "\n" << "procs";
    for (const std::string &column : columns)
        os << ',' << column;
    os << "\n";
    for (const SeriesPoint &pt : figure.points) {
        os << pt.procs;
        for (std::size_t i = 0; i < columns.size(); ++i)
            os << ',' << (i < pt.values.size() ? pt.values[i] : 0.0);
        os << "\n";
    }
}

namespace {

void
writeFigureMeta(std::ostream &os, const Figure &figure)
{
    os << "\"title\":\"" << jsonEscape(figure.title) << "\","
       << "\"app\":\"" << jsonEscape(figure.app) << "\","
       << "\"topology\":\"" << jsonEscape(net::toString(figure.topology))
       << "\",\"metric\":\"" << jsonEscape(toString(figure.metric))
       << "\"";
}

void
writeFailureArray(std::ostream &os, const std::vector<FailedPoint> &failures)
{
    os << "\"failures\":[";
    for (std::size_t i = 0; i < failures.size(); ++i) {
        const FailedPoint &f = failures[i];
        os << (i != 0 ? ",\n    " : "\n    ")
           << "{\"procs\":" << f.procs << ",\"machine\":\""
           << jsonEscape(f.machine) << "\",\"error\":\""
           << jsonEscape(f.error) << "\",\"message\":\""
           << jsonEscape(f.message) << "\"";
        // Only captured failures carry a trace: manifests written with
        // capture off keep their historical bytes.
        if (!f.trace.empty())
            os << ",\"trace\":\"" << jsonEscape(f.trace) << "\"";
        os << "}";
    }
    os << (failures.empty() ? "]" : "\n  ]");
}

} // namespace

void
writeFigureJson(std::ostream &os, const SweepResult &result)
{
    const Figure &figure = result.figure;
    const std::vector<std::string> columns =
        machineColumns(figureMachines(figure));
    os << "{\n  ";
    writeFigureMeta(os, figure);
    os << ",\n  \"complete\":" << (result.complete() ? "true" : "false");
    os << ",\n  \"points\":[";
    for (std::size_t i = 0; i < figure.points.size(); ++i) {
        const SeriesPoint &pt = figure.points[i];
        os << (i != 0 ? ",\n    " : "\n    ") << "{\"procs\":" << pt.procs;
        for (std::size_t c = 0; c < columns.size(); ++c)
            os << ",\"" << columns[c] << "\":"
               << formatDouble(c < pt.values.size() ? pt.values[c] : 0.0);
        os << "}";
    }
    os << (figure.points.empty() ? "]" : "\n  ]") << ",\n  ";
    writeFailureArray(os, result.failures);
    os << "\n}\n";
}

void
writeFailureManifest(std::ostream &os, const Figure &figure,
                     const std::vector<FailedPoint> &failures)
{
    os << "{\n  ";
    writeFigureMeta(os, figure);
    os << ",\n  ";
    writeFailureArray(os, failures);
    os << "\n}\n";
}

trace::DivergenceReport
compareFigures(const Figure &executed, const Figure &replayed)
{
    trace::DivergenceReport report;
    report.figure = executed.app + "_" + net::toString(executed.topology) +
                    "_" + toString(executed.metric);
    report.metric = toString(executed.metric);

    const std::vector<std::string> columns =
        machineColumns(figureMachines(executed));
    for (const SeriesPoint &exec_pt : executed.points) {
        const SeriesPoint *rep_pt = nullptr;
        for (const SeriesPoint &candidate : replayed.points)
            if (candidate.procs == exec_pt.procs) {
                rep_pt = &candidate;
                break;
            }
        if (rep_pt == nullptr)
            continue; // Unpaired point: nothing to compare.
        const std::size_t cols =
            std::min({columns.size(), exec_pt.values.size(),
                      rep_pt->values.size()});
        for (std::size_t c = 0; c < cols; ++c)
            report.add(columns[c], exec_pt.procs, exec_pt.values[c],
                       rep_pt->values[c]);
    }
    report.finalize();
    return report;
}

} // namespace absim::core
