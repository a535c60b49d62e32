#include "core/run_settings.hh"

#include <algorithm>
#include <array>
#include <cctype>
#include <limits>
#include <stdexcept>
#include <vector>

#include "apps/app.hh"
#include "core/env.hh"
#include "machines/registry.hh"
#include "mem/addr.hh"
#include "sim/trace.hh"

namespace absim::core {

namespace {

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

template <typename Names>
std::string
joinNames(const Names &names)
{
    std::string out;
    for (const auto &name : names)
        out.append(out.empty() ? "" : ", ").append(name);
    return out;
}

/** The index of @p text in @p names, as the enum @p out. */
template <typename E, typename Names>
bool
parseName(const Names &names, std::string_view text, E &out)
{
    const auto it = std::find(names.begin(), names.end(), text);
    if (it == names.end())
        return false;
    out = static_cast<E>(it - names.begin());
    return true;
}

/** A RunConfig field named by an entry of its enum's name array. */
template <typename E, std::size_t N>
RunSetting
nameRow(std::string_view key, unsigned takers, std::string_view help,
        const std::array<std::string_view, N> &names, E RunConfig::*field)
{
    return {key, json::Type::String, takers, help, joinNames(names),
            [&names, field](std::string_view text, Settings &s) {
                return parseName(names, text, s.config.*field);
            }};
}

/** An integer in [min, max]; a power of two too when @p pow2. */
template <typename Set>
RunSetting
uintRow(std::string_view key, unsigned takers, std::string_view help,
        std::uint64_t min, std::uint64_t max, bool pow2, Set set)
{
    const std::string valid = (pow2 ? "a power of two in " : "") +
                              std::to_string(min) + ".." +
                              std::to_string(max);
    return {key, json::Type::Number, takers, help, valid,
            [=](std::string_view text, Settings &s) {
                std::uint64_t v = 0;
                if (!parseUint(text, v) || v < min || v > max ||
                    (pow2 && (v & (v - 1)) != 0))
                    return false;
                set(v, s);
                return true;
            }};
}

// Who takes a row: every run setting is a run_cli flag and a request
// field; the figure program takes the sweep's problem size and budgets;
// absim_serve's flags are the policy rows.
constexpr unsigned kRun = kRunCli | kRequest;
constexpr unsigned kBudget = kRun | kFigure | kServe;

/** The figure row's valid values: every number and every name. */
std::string
figureChoices()
{
    std::string out = "1.." + std::to_string(kFigures.size());
    for (const FigureSpec &figure : kFigures)
        out += ", " + figureName(figure);
    return out;
}

/** The ablation row's valid values: every name. */
std::string
ablationChoices()
{
    std::string out;
    for (const AblationSpec &ablation : kAblations)
        out.append(out.empty() ? "" : ", ").append(ablation.name);
    return out;
}

std::vector<RunSetting>
makeTable()
{
    std::vector<std::string> apps = apps::appNames();
    for (std::string &name : apps::extensionAppNames())
        apps.push_back(std::move(name));
    using U = std::uint32_t;
    using S = Settings;
    return {
        {"figure", json::Type::String, kFigure,
         "the paper figure to sweep, by number or name (required)",
         figureChoices(),
         [](std::string_view text, S &s) {
             s.figure = findFigure(text);
             return s.figure != nullptr;
         }},
        {"ablation", json::Type::String, kAblation,
         "the ablation to run, by name (required)", ablationChoices(),
         [](std::string_view text, S &s) {
             s.ablation = findAblation(text);
             return s.ablation != nullptr;
         }},
        {"app", json::Type::String, kRun, "application (default fft)",
         joinNames(apps),
         [apps](std::string_view text, S &s) {
             std::size_t i = 0;
             if (!parseName(apps, text, i))
                 return false;
             s.config.app = apps[i];
             return true;
         }},
        uintRow("size", kRun | kFigure, "problem size (default: the app's)",
                1, 1u << 26, false,
                [](auto v, S &s) { s.config.params.n = v; }),
        uintRow("seed", kRun, "workload seed (default 12345)", 0, kU64Max,
                false, [](auto v, S &s) { s.config.params.seed = v; }),
        uintRow("iterations", kRun, "iteration count (0 = the app's)", 0,
                1u << 20, false,
                [](auto v, S &s) { s.config.params.iterations = U(v); }),
        {"variant", json::Type::String, kRun,
         "app variant (synthetic: access pattern)", "any text",
         [](std::string_view text, S &s) {
             s.config.params.variant = text;
             return true;
         }},
        {"machine", json::Type::String, kRun,
         "machine stack (default target)", mach::machineNames(),
         [](std::string_view text, S &s) {
             return mach::parseMachineKind(text, s.config.machine);
         }},
        nameRow("topology", kRun, "network topology (default full)",
                net::kTopologyNames, &RunConfig::topology),
        uintRow("procs", kRun,
                "processors; run_cli's sweep goes up to it (default 8)", 1,
                mem::kMaxNodes, true,
                [](auto v, S &s) { s.config.procs = U(v); }),
        nameRow("gap", kRun, "LogP g policy (default single)",
                logp::kGapPolicyNames, &RunConfig::gapPolicy),
        nameRow("protocol", kRun,
                "directory stacks' protocol (default berkeley)",
                mach::kProtocolNames, &RunConfig::protocol),
        uintRow("cache_kb", kRun, "cache size per node in KB (default 64)",
                1, 1024, true,
                [](auto v, S &s) { s.config.cache.bytes = U(v) * 1024; }),
        {"check", json::Type::Bool, kRun,
         "validate the app's result (default true)", "true, false",
         [](std::string_view text, S &s) {
             if (text != "true" && text != "false")
                 return false;
             s.config.checkResult = text == "true";
             return true;
         }},
        {"deadline_s", json::Type::Number, kBudget,
         "wall-clock budget in seconds (0 = none)", "a finite number >= 0",
         [](std::string_view text, S &s) {
             double v = 0.0;
             if (!parseDouble(text, v) || v < 0.0)
                 return false;
             s.policy.budget.maxWallSeconds = v;
             return true;
         }},
        uintRow("max_events", kBudget, "engine-event budget (0 = none)", 0,
                kU64Max, false,
                [](auto v, S &s) { s.policy.budget.maxEvents = v; }),
        uintRow("max_sim_time", kRun | kServe,
                "simulated-ns budget (0 = none)", 0, kU64Max, false,
                [](auto v, S &s) { s.policy.budget.maxSimTime = v; }),
        uintRow("stall_limit", kBudget,
                "dispatches without sim-time progress before the deadlock "
                "watchdog fires (default 10000000; 0 = off)",
                0, kU64Max, false, [](auto v, S &s) {
                    s.policy.budget.stallDispatchLimit = v;
                }),
        uintRow("retries", kRun | kServe,
                "total attempts; a CheckFailed run is retried (default 2)",
                1, 100, false,
                [](auto v, S &s) { s.policy.maxAttempts = int(v); }),
        {"trace", json::Type::String, kBudget,
         "trace categories captured into a failure report",
         "a comma-separated list of " +
             joinNames(sim::kTraceCategoryNames) + ", all",
         [](std::string_view text, S &s) {
             return sim::parseTraceMask(text, s.policy.traceMask);
         }},
        {"fault_plan", json::Type::String, kRun,
         "arm the fault injector (see docs/ROBUSTNESS.md)",
         "';'-separated kind@count faults (kind wedge, corrupt, drop or "
         "stall; count >= 1; a wedge may add :node=N) and seed=S, e.g. "
         "'wedge@120:node=2; seed=7'",
         [](std::string_view text, S &s) {
             try {
                 s.faultPlan = fault::Plan::parse(std::string(text));
             } catch (const std::invalid_argument &) {
                 return false;
             }
             return true;
         },
         [](std::string_view text) -> std::string {
             try {
                 (void)fault::Plan::parse(std::string(text));
             } catch (const std::invalid_argument &e) {
                 return e.what();
             }
             return {};
         }},
        {"metric", json::Type::String, kRun,
         "the metric a sweep plots (default exec_time)",
         "exec, " + joinNames(kMetricNames),
         [](std::string_view text, S &s) {
             if (text == "exec")
                 text = kMetricNames[static_cast<std::size_t>(
                     Metric::ExecTime)];
             return parseName(kMetricNames, text, s.metric);
         }},
        uintRow("max_procs", kFigure | kRequest,
                "a sweep's largest P (default 32)", 1, 1u << 20, false,
                [](auto v, S &s) { s.maxProcs = U(v); }),
        uintRow("jobs", kRunCli | kFigure | kAblation,
                "sweep worker threads; output is identical for any value "
                "(default 1)",
                1, 256, false, [](auto v, S &s) { s.jobs = unsigned(v); }),
        {"shard", json::Type::String, kFigure,
         "run one shard of the sweep (default 0/1, the whole sweep)",
         "K/N with 0 <= K < N",
         [](std::string_view text, S &s) {
             return ShardSpec::parse(std::string(text), s.shard);
         }},
        nameRow("mode", kRunCli | kFigure,
                "how a run gets its references; replay records on a miss "
                "(default execute)",
                kRunModeNames, &RunConfig::mode),
        {"trace_dir", json::Type::String, kRunCli | kFigure,
         "trace store of record and replay (default traces)",
         "a non-empty path",
         [](std::string_view text, S &s) {
             if (text.empty())
                 return false;
             s.config.traceDir = text;
             return true;
         }},
    };
}

} // namespace

std::span<const RunSetting>
runSettings()
{
    static const std::vector<RunSetting> kTable = makeTable();
    return kTable;
}

const RunSetting *
findRunSetting(std::string_view key)
{
    for (const RunSetting &row : runSettings())
        if (row.key == key)
            return &row;
    return nullptr;
}

const RunSetting *
findRunSettingFlag(std::string_view flag)
{
    for (const RunSetting &row : runSettings())
        if (flagName(row.key) == flag)
            return &row;
    return nullptr;
}

std::string
flagName(std::string_view key)
{
    std::string flag = "--" + std::string(key);
    std::replace(flag.begin(), flag.end(), '_', '-');
    return flag;
}

std::string
envName(std::string_view key)
{
    std::string name = "ABSIM_";
    for (const char c : key)
        name += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    return name;
}

std::string
invalidValue(std::string_view name, std::string_view text,
             const RunSetting &row)
{
    return invalidValue(name, text, row.valid,
                        row.why ? row.why(text) : std::string());
}

std::string
invalidValue(std::string_view name, std::string_view text,
             std::string_view valid, std::string_view why)
{
    std::string out = "invalid ";
    out.append(name).append(" value '").append(text).append("' (");
    if (!why.empty())
        out.append(why).append("; ");
    return out.append("valid: ").append(valid).append(")");
}

bool
applySettings(unsigned takers, int argc, const char *const *argv,
              Settings &out, std::string &error,
              std::vector<std::string> *rest)
{
    const auto apply = [&](const RunSetting &row, const std::string &name,
                           std::string_view text) {
        if (row.apply(text, out))
            return true;
        error = invalidValue(name, text, row);
        return false;
    };
    for (const RunSetting &row : runSettings()) {
        const std::string name = envName(row.key);
        const char *text = (row.takers & takers) ? envString(name.c_str())
                                                 : nullptr;
        if (text != nullptr && !apply(row, name, text))
            return false;
    }
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const RunSetting *row = findRunSettingFlag(arg);
        if (row == nullptr || (row->takers & takers) == 0) {
            if (rest == nullptr) {
                error = "unknown option '" + arg + "'";
                return false;
            }
            rest->push_back(arg);
        } else if (i + 1 == argc) {
            error = "missing value after " + arg;
            return false;
        } else if (!apply(*row, arg, argv[++i])) {
            return false;
        }
    }
    return true;
}

std::string
runSettingsUsage(unsigned takers)
{
    std::string out;
    for (const RunSetting &row : runSettings()) {
        if ((row.takers & takers) == 0)
            continue;
        std::string flag = flagName(row.key);
        flag += row.type == json::Type::Number ? " N"
                : row.type == json::Type::Bool ? " BOOL"
                                               : " S";
        flag.resize(std::max<std::size_t>(flag.size(), 18), ' ');
        out += "  " + flag + " " + std::string(row.help) + "\n" +
               std::string(21, ' ') + "valid: " + row.valid + "\n";
    }
    return out + "Each flag --some-key may instead be set by the variable "
                 "ABSIM_SOME_KEY;\nthe flag wins.\n";
}

} // namespace absim::core
