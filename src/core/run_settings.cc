#include "core/run_settings.hh"

#include <algorithm>
#include <array>
#include <limits>
#include <vector>

#include "apps/app.hh"
#include "core/env.hh"
#include "machines/registry.hh"
#include "mem/addr.hh"
#include "sim/trace.hh"

namespace absim::core {

namespace {

using C = RunConfig;
using P = RunPolicy;

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
nameRow(std::string_view key, std::string_view help,
        const std::array<std::string_view, N> &names, E C::*field)
{
    return {key, json::Type::String, false, help, joinNames(names),
            [&names, field](std::string_view text, C &c, P &) {
                return parseName(names, text, c.*field);
            }};
}

/** An integer in [min, max]; a power of two too when @p pow2. */
template <typename Set>
RunSetting
uintRow(std::string_view key, bool policy, std::string_view help,
        std::uint64_t min, std::uint64_t max, bool pow2, Set set)
{
    const std::string valid = (pow2 ? "a power of two in " : "") +
                              std::to_string(min) + ".." +
                              std::to_string(max);
    return {key, json::Type::Number, policy, help, valid,
            [=](std::string_view text, C &c, P &p) {
                std::uint64_t v = 0;
                if (!parseUint(text, v) || v < min || v > max ||
                    (pow2 && (v & (v - 1)) != 0))
                    return false;
                set(v, c, p);
                return true;
            }};
}

std::vector<RunSetting>
makeTable()
{
    std::vector<std::string> apps = apps::appNames();
    for (std::string &name : apps::extensionAppNames())
        apps.push_back(std::move(name));
    using U = std::uint32_t;
    return {
        {"app", json::Type::String, false, "application (default fft)",
         joinNames(apps),
         [apps](std::string_view text, C &c, P &) {
             std::size_t i = 0;
             if (!parseName(apps, text, i))
                 return false;
             c.app = apps[i];
             return true;
         }},
        uintRow("size", false, "problem size (default: the app's)", 1,
                1u << 26, false, [](auto v, C &c, P &) { c.params.n = v; }),
        uintRow("seed", false, "workload seed (default 12345)", 0, kU64Max,
                false, [](auto v, C &c, P &) { c.params.seed = v; }),
        uintRow("iterations", false, "iteration count (0 = the app's)", 0,
                1u << 20, false,
                [](auto v, C &c, P &) { c.params.iterations = U(v); }),
        {"variant", json::Type::String, false,
         "app variant (synthetic: access pattern)", "any text",
         [](std::string_view text, C &c, P &) {
             c.params.variant = text;
             return true;
         }},
        {"machine", json::Type::String, false,
         "machine stack (default target)", mach::machineNames(),
         [](std::string_view text, C &c, P &) {
             return mach::parseMachineKind(text, c.machine);
         }},
        nameRow("topology", "network topology (default full)",
                net::kTopologyNames, &C::topology),
        uintRow("procs", false, "processors; a sweep's largest P (default 8)",
                1, mem::kMaxNodes, true,
                [](auto v, C &c, P &) { c.procs = U(v); }),
        nameRow("gap", "LogP g policy (default single)",
                logp::kGapPolicyNames, &C::gapPolicy),
        nameRow("protocol", "directory stacks' protocol (default berkeley)",
                mach::kProtocolNames, &C::protocol),
        uintRow("cache_kb", false, "cache size per node in KB (default 64)",
                1, 1u << 20, true,
                [](auto v, C &c, P &) { c.cache.bytes = U(v) * 1024; }),
        {"check", json::Type::Bool, false,
         "validate the app's result (default true)", "true, false",
         [](std::string_view text, C &c, P &) {
             if (text != "true" && text != "false")
                 return false;
             c.checkResult = text == "true";
             return true;
         }},
        {"deadline_s", json::Type::Number, true,
         "wall-clock budget in seconds (0 = none)", "a finite number >= 0",
         [](std::string_view text, C &, P &p) {
             double v = 0.0;
             if (!parseDouble(text, v) || v < 0.0)
                 return false;
             p.budget.maxWallSeconds = v;
             return true;
         }},
        uintRow("max_events", true, "engine-event budget (0 = none)", 0,
                kU64Max, false,
                [](auto v, C &, P &p) { p.budget.maxEvents = v; }),
        uintRow("max_sim_time", true, "simulated-ns budget (0 = none)", 0,
                kU64Max, false,
                [](auto v, C &, P &p) { p.budget.maxSimTime = v; }),
        uintRow("stall_limit", true,
                "dispatches without sim-time progress before the deadlock "
                "watchdog fires (default 10000000; 0 = off)",
                0, kU64Max, false,
                [](auto v, C &, P &p) { p.budget.stallDispatchLimit = v; }),
        uintRow("retries", true,
                "total attempts; a CheckFailed run is retried (default 2)",
                1, 100, false,
                [](auto v, C &, P &p) { p.maxAttempts = int(v); }),
        {"trace", json::Type::String, true,
         "trace categories captured into a failure report",
         "a comma-separated list of " +
             joinNames(sim::kTraceCategoryNames) + ", all",
         [](std::string_view text, C &, P &p) {
             return sim::parseTraceMask(text, p.traceMask);
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
invalidValue(std::string_view name, std::string_view text,
             std::string_view valid)
{
    std::string out = "invalid ";
    out.append(name).append(" value '").append(text);
    return out.append("' (valid: ").append(valid).append(")");
}

std::string
runSettingsUsage(bool policyOnly)
{
    std::string out;
    for (const RunSetting &row : runSettings()) {
        if (policyOnly && !row.policy)
            continue;
        std::string flag = flagName(row.key);
        flag += row.type == json::Type::Number ? " N"
                : row.type == json::Type::Bool ? " BOOL"
                                               : " S";
        flag.resize(std::max<std::size_t>(flag.size(), 18), ' ');
        out += "  " + flag + " " + std::string(row.help) + "\n" +
               std::string(21, ' ') + "valid: " + row.valid + "\n";
    }
    return out;
}

std::string
metricNames()
{
    return "exec, " + joinNames(kMetricNames);
}

bool
parseMetric(std::string_view text, std::string_view name, Metric &out,
            std::string &error)
{
    if (text == "exec")
        text = kMetricNames[static_cast<std::size_t>(Metric::ExecTime)];
    if (parseName(kMetricNames, text, out))
        return true;
    error = invalidValue(name, text, metricNames());
    return false;
}

} // namespace absim::core
