#include "core/figures.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <iomanip>
#include <iterator>
#include <ostream>
#include <stdexcept>

#include "machines/registry.hh"

namespace absim::core {

std::string
toString(Metric metric)
{
    const auto i = static_cast<std::size_t>(metric);
    return i < kMetricNames.size() ? std::string(kMetricNames[i]) : "?";
}

namespace {
using Net = net::TopologyKind;
} // namespace

const std::array<FigureSpec, 20> kFigures = {{
    // LogP+C tracks the target closely (slightly pessimistic: L assumes
    // full-size messages); plain LogP is ~4x (four 8-byte data items
    // per 32-byte cache block).
    {1, "fft", Net::Full, Metric::Latency},
    // LogP+C tracks the target; plain LogP is far higher (no spatial or
    // temporal locality on the irregular gather).
    {2, "cg", Net::Full, Metric::Latency},
    // Tiny absolute values; LogP inflated because every
    // condition-variable poll is a remote reference.
    {3, "ep", Net::Full, Metric::Latency},
    // LogP+C close to the target, slightly favoured by ignoring
    // coherence traffic.
    {4, "is", Net::Full, Metric::Latency},
    // LogP+C close to the target (optimistic side: no coherence
    // traffic).
    {5, "cholesky", Net::Full, Metric::Latency},
    // Similar trend, pessimistic absolute values from the
    // bisection-bandwidth g.
    {6, "is", Net::Full, Metric::Contention},
    // Pessimism grows as connectivity drops.
    {7, "is", Net::Mesh2D, Metric::Contention},
    // The configuration the Section 7 g-usage ablation revisits.
    {8, "fft", Net::Hypercube, Metric::Contention},
    // CHOLESKY's contention on the fully connected network, beside
    // Figure 6's IS.
    {9, "cholesky", Net::Full, Metric::Contention},
    // Large disparity; EP's communication locality makes g very
    // pessimistic, even changing the trend.
    {10, "ep", Net::Full, Metric::Contention},
    // The amplified pessimism of Figure 10.
    {11, "ep", Net::Mesh2D, Metric::Contention},
    // All three machines agree (computation dominates).
    {12, "ep", Net::Full, Metric::ExecTime},
    // LogP separates from LogP+C on the lowest-connectivity network.
    {13, "fft", Net::Mesh2D, Metric::ExecTime},
    // Pronounced LogP-vs-LogP+C gap on every network.
    {14, "is", Net::Full, Metric::ExecTime},
    // Large gap; locality of the dynamic gather cannot be ignored.
    {15, "cg", Net::Full, Metric::ExecTime},
    // Large LogP gap for the dynamic application.
    {16, "cholesky", Net::Full, Metric::ExecTime},
    // The LogP curve no longer even follows the target's shape.
    {17, "cg", Net::Mesh2D, Metric::ExecTime},
    // LogP shape lost, driven by mesh contention.
    {18, "cholesky", Net::Mesh2D, Metric::ExecTime},
    // Explains Figure 17.
    {19, "cg", Net::Mesh2D, Metric::Contention},
    // Explains Figure 18.
    {20, "cholesky", Net::Mesh2D, Metric::Contention},
}};

std::string
figureName(const FigureSpec &figure)
{
    return std::string(figure.app) + "_" + net::toString(figure.topology) +
           "_" +
           (figure.metric == Metric::ExecTime ? "exec"
                                              : toString(figure.metric));
}

std::string
figureTitle(const FigureSpec &figure)
{
    static constexpr std::array<std::string_view, 3> kMetricTitles = {
        "Execution Time", "Latency", "Contention"};
    const auto upper = [](char c) {
        return static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    };
    std::string app(figure.app);
    std::transform(app.begin(), app.end(), app.begin(), upper);
    std::string network = net::toString(figure.topology);
    network[0] = upper(network[0]);
    return "Figure " + std::to_string(figure.number) + ": " + app + " on " +
           network + ": " +
           std::string(kMetricTitles[static_cast<std::size_t>(figure.metric)]);
}

std::string
figureStem(const FigureSpec &figure)
{
    return std::string(figure.app) + "_" + net::toString(figure.topology) +
           "_" + toString(figure.metric);
}

const FigureSpec *
findFigure(std::string_view text)
{
    for (const FigureSpec &figure : kFigures)
        if (text == std::to_string(figure.number) ||
            text == figureName(figure))
            return &figure;
    return nullptr;
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

namespace {
constexpr std::uint32_t kProcCounts[] = {1, 2, 4, 8, 16, 32};
} // namespace

std::vector<std::uint32_t>
defaultProcCounts()
{
    return {std::begin(kProcCounts), std::end(kProcCounts)};
}

std::vector<std::uint32_t>
procCountsUpTo(std::uint32_t max)
{
    // kProcCounts ascends: the list is a prefix of it.
    return {std::begin(kProcCounts),
            std::upper_bound(std::begin(kProcCounts), std::end(kProcCounts),
                             max)};
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

SweepResult
sweepFigureSafe(const std::string &title, const RunConfig &base,
                net::TopologyKind topology, Metric metric,
                const std::vector<std::uint32_t> &proc_counts,
                const SweepOptions &options)
{
    const ShardSpec shard = options.shard;
    if (!shard.valid())
        throw std::invalid_argument("invalid shard spec " + shard.str());
    SweepResult result;
    result.figure = {title, base.app, topology, metric, options.machines, {}};
    result.figure.machines = figureMachines(result.figure);
    const std::vector<mach::MachineKind> &machines = result.figure.machines;
    const std::size_t machine_count = machines.size();
    std::vector<std::string> names;
    for (const mach::MachineKind kind : machines)
        names.emplace_back(mach::specFor(kind).name);

    // The owned work items, row-major: item g is point g / M, machine
    // g % M, and shard K/N owns the items with g % N == K (the unsharded
    // sweep is shard 0/1 and owns them all).  Each item keeps only its
    // journal record: its metric value or its failure.
    std::vector<std::size_t> owned;
    for (std::size_t g = 0; g < proc_counts.size() * machine_count; ++g)
        if (shard.owns(g))
            owned.push_back(g);
    std::vector<JournalRecord> items(owned.size());
    for (std::size_t r = 0; r < owned.size(); ++r) {
        items[r].procs = proc_counts[owned[r] / machine_count];
        items[r].machine = names[owned[r] % machine_count];
    }

    // The journal answers a prefix of the owned items positionally:
    // record r is owned item r.  The header stamps the machines and the
    // shard spec, so a journal never resumes another sweep's or another
    // shard's items; a record off this sweep's grid (too many records,
    // another procs or machine) rejects the journal too, and a rejected
    // journal is rewritten from scratch.
    std::size_t journaled = 0;
    JournalWriter writer;
    if (!options.journalPath.empty()) {
        const std::string &path = options.journalPath;
        const JournalHeader header{title, base.app, net::toString(topology),
                                   toString(metric), names, shard};
        std::vector<JournalRecord> records;
        JournalResume info;
        bool resumed = loadJournal(path, header, records, &info) &&
                       records.size() <= owned.size();
        for (std::size_t r = 0; resumed && r < records.size(); ++r)
            resumed = records[r].procs == items[r].procs &&
                      records[r].machine == items[r].machine;
        if (resumed) {
            journaled = records.size();
            std::move(records.begin(), records.end(), items.begin());
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

    // One run per owned item after the journaled prefix, in sweep order.
    std::vector<RunConfig> configs;
    for (std::size_t r = journaled; r < owned.size(); ++r) {
        RunConfig config = base;
        config.topology = topology;
        config.procs = items[r].procs;
        config.machine = machines[owned[r] % machine_count];
        configs.push_back(config);
    }

    // In-order frontier over the fresh items: each record is appended
    // once every item before it is, whatever order the pool finishes
    // in, so a crash always leaves a resumable prefix.
    std::vector<bool> done(configs.size(), false);
    std::size_t frontier = 0;
    const RunManyCallback onResult = [&](std::size_t i,
                                         const RunResult &run) {
        JournalRecord &item = items[journaled + i];
        if (run.ok()) {
            item.value = metricValue(run.value(), metric);
        } else {
            item.failed = true;
            item.error = toString(run.error().kind);
            item.message = run.error().message;
            item.trace = run.error().traceExcerpt;
        }
        done[i] = true;
        for (; frontier < done.size() && done[frontier]; ++frontier)
            writer.append(items[journaled + frontier]);
    };

    (void)runManySafe(configs, options.policy, options.jobs,
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
            } else {
                point.values[mi] = item.value;
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
