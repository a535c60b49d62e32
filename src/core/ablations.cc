#include "core/ablations.hh"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/figures.hh"
#include "core/run_settings.hh"

namespace absim::core {

namespace {

using stats::Profile;
using Value = std::optional<double>;

const AblationMeasure kExecUs{
    "exec(us)", "%.1f", [](const Profile &p, const Profile *) -> Value {
        return metricValue(p, Metric::ExecTime);
    }};
const AblationMeasure kContentionUs{
    "contention(us)", "%.1f", [](const Profile &p, const Profile *) -> Value {
        return metricValue(p, Metric::Contention);
    }};
const AblationMeasure kMessages{
    "msgs", "%.0f", [](const Profile &p, const Profile *) -> Value {
        return static_cast<double>(p.machine.messages);
    }};
const AblationMeasure kMisses{
    "misses", "%.0f", [](const Profile &p, const Profile *) -> Value {
        return static_cast<double>(p.machine.readMisses +
                                   p.machine.writeMisses);
    }};
const AblationMeasure kEvents{
    "events", "%.0f", [](const Profile &p, const Profile *) -> Value {
        return static_cast<double>(p.engineEvents);
    }};
/** The execution time's error against the row's first cell, percent. */
const AblationMeasure kExecErrorPct{
    "err(%)", "%+.2f", [](const Profile &p, const Profile *first) -> Value {
        if (first == nullptr)
            return std::nullopt;
        const double reference = metricValue(*first, Metric::ExecTime);
        if (reference == 0.0)
            return 0.0;
        return 100.0 * (metricValue(p, Metric::ExecTime) - reference) /
               reference;
    }};

AblationAxis
procsRow(std::string_view p)
{
    return {p, {{"procs", p}}};
}

/** The row "APP P": application APP on P processors. */
AblationAxis
appProcsRow(std::string_view label)
{
    const std::size_t space = label.find(' ');
    return {label,
            {{"app", label.substr(0, space)},
             {"procs", label.substr(space + 1)}}};
}

AblationAxis
machineColumn(std::string_view machine)
{
    return {machine, {{"machine", machine}}};
}

const AblationAxis kTarget = machineColumn("target");
const AblationAxis kLogPCSingle{"logp+c(single)",
                                {{"machine", "logp+c"}, {"gap", "single"}}};
const AblationAxis kLogPCBisect{
    "logp+c(bisect)", {{"machine", "logp+c"}, {"gap", "bisection"}}};

} // namespace

const std::array<AblationSpec, 7> kAblations = {{
    // Section 7: the LogP definition precludes even simultaneous sends
    // and receives at one node.  Allowing the gap only between
    // identical communication events (per-direction) brings FFT's
    // contention on the cube much closer to the target's.  The
    // bisection-only gate is this library's extension of the paper's
    // suggestion to fold communication locality into g.
    {"g_usage",
     "Section 7 ablation: g-usage policy, FFT on Cube, contention "
     "overhead (us, per-proc mean)",
     {{"app", "fft"}, {"topology", "cube"}},
     {procsRow("1"), procsRow("2"), procsRow("4"), procsRow("8"),
      procsRow("16"), procsRow("32")},
     {kTarget,
      kLogPCSingle,
      {"logp+c(per-dir)", {{"machine", "logp+c"}, {"gap", "per-direction"}}},
      kLogPCBisect,
      {"logp(single)", {{"machine", "logp"}, {"gap", "single"}}}},
     {kContentionUs},
     "Paper expectation: the per-direction gap removes the\n"
     "send-after-receive serialization of every round trip and\n"
     "lands much closer to the target's link contention.  The\n"
     "bisect column is this library's extension implementing the\n"
     "paper's suggestion to fold communication locality into g:\n"
     "only bisection-crossing messages consume gate bandwidth."},
    // Section 7 shows with EP that g's bisection-bandwidth derivation
    // "fails to capture any communication locality".  The near-neighbor
    // stencil on the mesh is the limiting case: almost no message
    // crosses the bisection, so the standard gate is most pessimistic
    // and the bisection-only gate collapses toward the target.
    {"stencil_locality",
     "Stencil (near-neighbor) on Mesh: contention overhead (us, per-proc "
     "mean)",
     {{"app", "stencil"}, {"size", "64"}, {"topology", "mesh"}},
     {procsRow("2"), procsRow("4"), procsRow("8"), procsRow("16"),
      procsRow("32")},
     {kTarget, kLogPCSingle, kLogPCBisect},
     {kContentionUs},
     ""},
    // The access patterns of the authors' bandwidth-characterization
    // companion paper (reference [26]): the bisection g charges
    // neighbor traffic as if it crossed the bisection, fits uniform and
    // hotspot traffic much better, and the locality-aware gate repairs
    // the neighbor case.
    {"synthetic",
     "Synthetic access patterns on a 4x4 mesh, P=16: contention overhead "
     "(us, per-proc mean)",
     {{"app", "synthetic"}, {"topology", "mesh"}, {"procs", "16"}},
     {{"private", {{"variant", "private"}}},
      {"neighbor", {{"variant", "neighbor"}}},
      {"uniform", {{"variant", "uniform"}}},
      {"hotspot", {{"variant", "hotspot"}}}},
     {kTarget, kLogPCSingle, kLogPCBisect},
     {kContentionUs},
     "Reading: 'neighbor' is where the standard g is most\n"
     "pessimistic and where the locality-aware gate recovers\n"
     "the most; 'private' must be ~zero everywhere."},
    // The paper's ideal cache rests on ~64 KB caches holding the
    // important working set of many parallel applications
    // (Rothberg/Singh/Gupta, its reference [21]): misses and execution
    // time flatten once the working set fits.
    {"cache_size",
     "Cache-size sweep, P=8, full network: read+write misses and exec "
     "time (us)",
     {{"procs", "8"}},
     {{"fft 4KB", {{"app", "fft"}, {"size", "2048"}, {"cache_kb", "4"}}},
      {"fft 16KB", {{"app", "fft"}, {"size", "2048"}, {"cache_kb", "16"}}},
      {"fft 64KB", {{"app", "fft"}, {"size", "2048"}, {"cache_kb", "64"}}},
      {"fft 256KB",
       {{"app", "fft"}, {"size", "2048"}, {"cache_kb", "256"}}},
      {"cg 4KB", {{"app", "cg"}, {"size", "512"}, {"cache_kb", "4"}}},
      {"cg 16KB", {{"app", "cg"}, {"size", "512"}, {"cache_kb", "16"}}},
      {"cg 64KB", {{"app", "cg"}, {"size", "512"}, {"cache_kb", "64"}}},
      {"cg 256KB", {{"app", "cg"}, {"size", "512"}, {"cache_kb", "256"}}}},
     {kTarget, machineColumn("logp+c")},
     {kMisses, kExecUs},
     ""},
    // Section 3.2: the LogP+C ideal cache generates "the minimum number
    // of network messages that any [invalidation-based] coherence
    // protocol may hope to achieve"; Section 7 cites Wood et al. that
    // performance is not very sensitive to the protocol.  Expected:
    // messages(LogP+C) <= messages(Berkeley) <= messages(MSI), with
    // close execution times under the two real protocols.
    {"protocol",
     "Coherence-protocol sensitivity, P=8, full network",
     {{"topology", "full"}, {"procs", "8"}},
     {{"ep", {{"app", "ep"}}},
      {"is", {{"app", "is"}}},
      {"cg", {{"app", "cg"}}},
      {"cholesky", {{"app", "cholesky"}}},
      {"fft", {{"app", "fft"}}}},
     {{"target/berkeley", {{"machine", "target"}, {"protocol", "berkeley"}}},
      {"target/msi", {{"machine", "target"}, {"protocol", "msi"}}},
      {"logp+c", {{"machine", "logp+c"}, {"protocol", "berkeley"}}}},
     {kMessages, kExecUs},
     "Expected: logp+c msgs <= berkeley msgs <= msi msgs;\n"
     "berkeley and msi execution times close (Wood et al.)."},
    // Section 5's entanglement: the paper's three machines occupy three
    // cells of the {detailed, logp} network x {directory, ideal,
    // uncached} memory grid, so when logp+c disagrees with the target
    // the error could come from the LogP network, the ideal cache, or
    // both.  The registry's two off-diagonal compositions (columns in
    // mach::allQuadrants() order) pull the factors apart: target+ic
    // (detailed network, ideal cache) carries the locality error alone
    // and logp+dir (LogP network, real directory) the network error
    // alone.  EP is computation bound, so every error stays near zero;
    // on communication-bound IS the errors separate.
    {"quadrants",
     "Quadrant ablation: EP and IS on full: execution time (us) and its "
     "error vs target (%)",
     {{"topology", "full"}},
     {appProcsRow("ep 1"), appProcsRow("ep 2"), appProcsRow("ep 4"),
      appProcsRow("ep 8"), appProcsRow("ep 16"), appProcsRow("is 1"),
      appProcsRow("is 2"), appProcsRow("is 4"), appProcsRow("is 8"),
      appProcsRow("is 16")},
     {kTarget, machineColumn("logp"), machineColumn("logp+c"),
      machineColumn("target+ic"), machineColumn("logp+dir")},
     {kExecUs, kExecErrorPct},
     "Reading: EP (computation bound) keeps every error near zero; on IS\n"
     "the single-axis quadrants attribute logp+c's disagreement between\n"
     "the network abstraction (logp+dir) and the locality abstraction\n"
     "(target+ic)."},
    // Section 7 "Speed of Simulation": the LogP+C simulation is faster
    // than the detailed target's, while plain LogP can be slower
    // (ignoring locality turns cache hits into network events).  Engine
    // events and messages are the host-neutral cost, so this row pins
    // them; bench_sweep's speed_ratio benches time the same cells.  EP
    // is scaled up so its wall-clock ratio is not noise.
    {"sim_speed",
     "Section 7 simulation speed, P=8, full network: engine events and "
     "messages",
     {{"procs", "8"}, {"topology", "full"}, {"check", "false"}},
     {{"fft", {{"app", "fft"}}},
      {"is", {{"app", "is"}}},
      {"cg", {{"app", "cg"}}},
      {"cholesky", {{"app", "cholesky"}}},
      {"ep", {{"app", "ep"}, {"size", "262144"}}}},
     {kTarget, machineColumn("logp"), machineColumn("logp+c")},
     {kEvents, kMessages},
     "Reading: logp+c dispatches the fewest events on every app; logp\n"
     "dispatches more than the target on EP, whose spinning turns cache\n"
     "hits into network events.  bench_sweep times these cells."},
}};

const AblationSpec *
findAblation(std::string_view name)
{
    for (const AblationSpec &spec : kAblations)
        if (spec.name == name)
            return &spec;
    return nullptr;
}

RunConfig
ablationConfig(const AblationSpec &spec, std::size_t row,
               std::size_t column)
{
    Settings settings;
    for (const auto *list : {&spec.base, &spec.rows.at(row).settings,
                             &spec.columns.at(column).settings})
        for (const SettingText &s : *list) {
            const RunSetting *setting = findRunSetting(s.key);
            if (setting == nullptr || !setting->apply(s.text, settings))
                throw std::invalid_argument(
                    "ablation " + std::string(spec.name) +
                    ": cannot apply " + std::string(s.key) + "=" +
                    std::string(s.text));
        }
    return settings.config;
}

std::vector<RunResult>
runAblation(const AblationSpec &spec, unsigned jobs)
{
    std::vector<RunConfig> configs;
    for (std::size_t r = 0; r < spec.rows.size(); ++r)
        for (std::size_t c = 0; c < spec.columns.size(); ++c)
            configs.push_back(ablationConfig(spec, r, c));
    return runManySafe(configs, {}, jobs);
}

void
printAblation(std::ostream &os, const AblationSpec &spec,
              const std::vector<RunResult> &grid)
{
    const std::size_t columns = spec.columns.size();
    const std::size_t measures = spec.measures.size();
    if (grid.size() != spec.rows.size() * columns)
        throw std::invalid_argument("ablation " + std::string(spec.name) +
                                    ": grid does not match its rows and "
                                    "columns");
    const auto pad = [](std::string_view text, std::size_t width,
                        bool left = false) {
        const std::string fill(width - std::min(width, text.size()), ' ');
        return left ? std::string(text) + fill : fill + std::string(text);
    };

    // Every value's text first, so each field is as wide as its widest
    // entry; field f = c * measures + m is column c's measure m.
    std::vector<std::string> text(grid.size() * measures, "-");
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const RunResult &first = grid[i - i % columns];
        for (std::size_t m = 0; m < measures && grid[i].ok(); ++m) {
            const std::optional<double> value = spec.measures[m].value(
                grid[i].value(), first.ok() ? &first.value() : nullptr);
            if (!value)
                continue;
            char buf[64];
            std::snprintf(buf, sizeof(buf), spec.measures[m].format, *value);
            text[i * measures + m] = buf;
        }
    }
    std::vector<std::size_t> width(columns * measures, 0);
    for (std::size_t i = 0; i < text.size(); ++i) {
        std::size_t &w = width[i % width.size()];
        w = std::max(w, text[i].size());
        if (measures > 1)
            w = std::max(w, spec.measures[i % measures].name.size());
    }
    const auto groupWidth = [&](std::size_t c) {
        std::size_t group = measures - 1;
        for (std::size_t m = 0; m < measures; ++m)
            group += width[c * measures + m];
        return group;
    };
    // A column label wider than its fields widens the first one.
    for (std::size_t c = 0; c < columns; ++c)
        width[c * measures] += spec.columns[c].label.size() -
                               std::min(spec.columns[c].label.size(),
                                        groupWidth(c));

    // The row labels' header names the keys the rows set.
    std::string corner;
    for (const SettingText &s : spec.rows.front().settings)
        corner.append(corner.empty() ? "" : ",").append(s.key);
    std::size_t labelWidth = corner.size();
    for (const AblationAxis &row : spec.rows)
        labelWidth = std::max(labelWidth, row.label.size());

    os << "# " << spec.title << "\n" << pad(corner, labelWidth, true);
    for (std::size_t c = 0; c < columns; ++c)
        os << "  " << pad(spec.columns[c].label, groupWidth(c));
    os << "\n";
    if (measures > 1) {
        os << pad("", labelWidth);
        for (std::size_t f = 0; f < width.size(); ++f)
            os << (f % measures == 0 ? "  " : " ")
               << pad(spec.measures[f % measures].name, width[f]);
        os << "\n";
    }
    for (std::size_t r = 0; r < spec.rows.size(); ++r) {
        os << pad(spec.rows[r].label, labelWidth, true);
        for (std::size_t f = 0; f < width.size(); ++f)
            os << (f % measures == 0 ? "  " : " ")
               << pad(text[r * width.size() + f], width[f]);
        os << "\n";
    }
    if (!spec.note.empty())
        os << "\n";
    std::istringstream note{std::string(spec.note)};
    for (std::string line; std::getline(note, line);)
        os << "# " << line << "\n";
}

} // namespace absim::core
