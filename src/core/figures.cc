#include "core/figures.hh"

#include <cstdio>
#include <iomanip>
#include <span>
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

/** Resolve SweepOptions::jobs: 0 = auto (ABSIM_JOBS, else serial). */
unsigned
resolveJobs(unsigned jobs)
{
    if (jobs != 0)
        return jobs;
    return static_cast<unsigned>(envUint("ABSIM_JOBS", 1, 1, 4096));
}

/** Where an owned work item's record came from. */
enum class ItemState : std::uint8_t
{
    Pending,   ///< Not answered yet: runs in this sweep.
    Journaled, ///< Answered by the resumed journal.
    Fresh,     ///< Ran in this sweep.
};

} // namespace

SweepResult
sweepFigureSafe(const std::string &title, const RunConfig &base,
                net::TopologyKind topology, Metric metric,
                const std::vector<std::uint32_t> &proc_counts,
                const SweepOptions &options)
{
    const ShardSpec shard = options.shard;
    if (!shard.valid())
        throw std::invalid_argument("invalid shard spec " + shard.str());
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

    // The owned work items, row-major: item g is point g / M, machine
    // g % M, and shard K/N owns the items with g % N == K (the unsharded
    // sweep is shard 0/1 and owns them all).  Each item keeps only its
    // shard-layout record: its metric value or its failure.
    std::vector<std::size_t> owned;
    for (std::size_t g = 0; g < proc_counts.size() * machine_count; ++g)
        if (shard.owns(g))
            owned.push_back(g);
    std::vector<JournalRecord> items(owned.size());
    std::vector<ItemState> state(owned.size(), ItemState::Pending);
    const auto procsOf = [&](std::size_t r) {
        return proc_counts[owned[r] / machine_count];
    };

    // A shard journal resumes positionally: record r is owned item r.
    // More records than owned items, or a procs off the grid, belong to
    // a different sweep shape.
    const auto resumeShard = [&](std::vector<JournalRecord> &records) {
        if (records.size() > owned.size())
            return false;
        for (std::size_t r = 0; r < records.size(); ++r) {
            if (records[r].procs != procsOf(r))
                return false;
            items[r] = std::move(records[r]);
            state[r] = ItemState::Journaled;
        }
        return true;
    };

    // A serial journal answers whole points, keyed by procs: a success
    // record every machine, a failure record its named machine.  A
    // failed point journals its failures one record at a time, in
    // machine order, and points commit in sweep order, so only the
    // journal's final point can be cut short: its machines after the
    // last journaled failure run again.  An earlier machine without a
    // record succeeded, and every other failed point keeps its verdict
    // (delete the journal to retry it).  A failure naming a machine
    // outside the sweep belongs to a different sweep.  Unsharded, every
    // item is owned, so owned index r is item g.
    const auto resumeSerial = [&](const std::vector<JournalRecord> &records) {
        for (const JournalRecord &rec : records) {
            std::size_t named = 0;
            while (rec.failed && named < machine_count &&
                   mach::specFor(machines[named]).name != rec.machine)
                ++named;
            if (named == machine_count)
                return false;
            for (std::size_t g = 0; g < owned.size(); ++g) {
                if (procsOf(g) != rec.procs ||
                    (rec.failed && g % machine_count != named))
                    continue;
                items[g] = rec;
                if (!rec.failed)
                    items[g].values = {rec.values[g % machine_count]};
                state[g] = ItemState::Journaled;
            }
        }
        for (std::size_t first = 0; first < owned.size();
             first += machine_count) {
            std::size_t answered = 0;
            for (std::size_t mi = 0; mi < machine_count; ++mi)
                if (items[first + mi].failed)
                    answered = mi + 1;
            if (answered != 0 && procsOf(first) != records.back().procs)
                answered = machine_count;
            for (std::size_t g = first; g < first + answered; ++g)
                if (state[g] == ItemState::Pending) {
                    items[g].procs = procsOf(g);
                    state[g] = ItemState::Journaled;
                }
        }
        return true;
    };

    // The header stamps the machine columns for a shard or a non-default
    // machine set (classic-trio journals keep the legacy header) and the
    // shard spec for a shard, so a journal never resumes a sweep with
    // other columns or another shard's items; such a journal, like one
    // the resume rejects, is rewritten from scratch.
    JournalHeader header{title, base.app, net::toString(topology),
                         toString(metric), {}, shard};
    if (shard.sharded() || !isDefaultMachineSet(machines))
        header.machines = columns;
    JournalWriter writer;
    if (!options.journalPath.empty()) {
        const std::string &path = options.journalPath;
        std::vector<JournalRecord> records;
        JournalResume info;
        const bool resumed =
            shard.sharded()
                ? loadShardJournal(path, header, columns, records, &info) &&
                      resumeShard(records)
                : loadJournal(path, header, columns, records, &info) &&
                      resumeSerial(records);
        if (!resumed) {
            items.assign(owned.size(), JournalRecord{});
            state.assign(owned.size(), ItemState::Pending);
        }
        // A journal that cannot be opened disables checkpointing with a
        // warning rather than failing the sweep.
        if (!(resumed ? writer.resume(path, info.cleanBytes)
                      : writer.start(path, header)))
            std::fprintf(stderr,
                         "warning: cannot write journal '%s'; sweeping "
                         "without checkpoints\n",
                         path.c_str());
    }

    // One run per owned item the journal does not answer, in sweep
    // order.
    std::vector<std::size_t> pending;
    std::vector<RunConfig> configs;
    for (std::size_t r = 0; r < owned.size(); ++r) {
        if (state[r] != ItemState::Pending)
            continue;
        RunConfig config = base;
        config.topology = topology;
        config.procs = procsOf(r);
        config.machine = machines[owned[r] % machine_count];
        pending.push_back(r);
        configs.push_back(config);
    }

    // In-order frontier over the owned items: records land in sweep
    // order whatever order the pool finishes in, so a crash always
    // leaves a resumable prefix.  A shard appends one record per fresh
    // item.  The unsharded sweep (r == g) appends a point's serial
    // records when its last item passes, less the failures the journal
    // already holds (they lead the point's records, as its fresh items
    // follow them).
    const auto commit = [&](std::size_t r) {
        const std::size_t g = owned[r];
        if (shard.sharded()) {
            if (state[r] == ItemState::Fresh)
                writer.append(items[r], {columns[g % machine_count]});
            return;
        }
        if (g % machine_count != machine_count - 1)
            return;
        const std::size_t first = g + 1 - machine_count;
        bool fresh = false;
        std::size_t journaled = 0;
        for (std::size_t k = first; k <= g; ++k) {
            if (state[k] == ItemState::Fresh)
                fresh = true;
            else if (items[k].failed)
                ++journaled;
        }
        if (!fresh)
            return;
        const std::vector<JournalRecord> records = serialPointRecords(
            std::span(items).subspan(first, machine_count));
        for (std::size_t k = journaled; k < records.size(); ++k)
            writer.append(records[k], columns);
    };

    std::size_t frontier = 0;
    const RunManyCallback onResult = [&](std::size_t i,
                                         const RunResult &run) {
        const std::size_t r = pending[i];
        JournalRecord &item = items[r];
        item.procs = procsOf(r);
        if (run.ok()) {
            item.values = {metricValue(run.value(), metric)};
        } else {
            item.failed = true;
            item.machine =
                mach::specFor(machines[owned[r] % machine_count]).name;
            item.error = toString(run.error().kind);
            item.message = run.error().message;
            item.trace = run.error().traceExcerpt;
        }
        state[r] = ItemState::Fresh;
        for (; frontier < owned.size() &&
               state[frontier] != ItemState::Pending;
             ++frontier)
            commit(frontier);
    };

    (void)runManySafe(configs, options.policy, resolveJobs(options.jobs),
                      onResult);
    writer.close();

    // The figure in sweep order: a point appears once all its owned
    // items succeeded (unowned columns read 0.0), and owned failures go
    // to the manifest.  A shard's figure is partial: the merged shard
    // journals are the sharded sweep's product.
    for (std::size_t pi = 0; pi < proc_counts.size(); ++pi) {
        SeriesPoint point{proc_counts[pi],
                          std::vector<double>(machine_count, 0.0)};
        bool any_owned = false;
        bool any_failed = false;
        for (std::size_t mi = 0; mi < machine_count; ++mi) {
            const std::size_t g = pi * machine_count + mi;
            if (!shard.owns(g))
                continue;
            any_owned = true;
            const JournalRecord &item =
                items[(g - shard.index) / shard.count];
            if (item.failed) {
                any_failed = true;
                result.failures.push_back(
                    FailedPoint{item.procs, item.machine, item.error,
                                item.message, item.trace});
            } else if (!item.values.empty()) {
                point.values[mi] = item.values[0];
            }
        }
        if (any_owned && !any_failed)
            result.figure.points.push_back(std::move(point));
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
