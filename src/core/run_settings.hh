/**
 * @file
 * The run-settings table: the one place a run or sweep setting is
 * spelled, bounded and parsed.
 *
 * One row per value a caller sets by name.  Its key is the serve
 * request's JSON key; its flag is "--" plus the key with '_' spelled
 * '-' (flagName()); its environment variable is "ABSIM_" plus the key
 * in capitals (envName()).  Its apply() parses a text, checks the row's
 * one range and writes the value.  Every surface prints a rejection as
 * invalidValue(name, text, row), naming the setting as that surface
 * spells it.  Numbers follow json::parseUint/parseDouble, so a
 * flag, a variable and a serve request field accept the same texts and
 * values.  docs/API.md tables every row.
 */

#ifndef ABSIM_CORE_RUN_SETTINGS_HH
#define ABSIM_CORE_RUN_SETTINGS_HH

#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/ablations.hh"
#include "core/experiment.hh"
#include "core/figures.hh"
#include "fault/fault.hh"
#include "json/json.hh"

namespace absim::core {

/** Everything the rows write: one run, its policy, and how a sweep of
 *  it runs. */
struct Settings
{
    RunConfig config; ///< Includes the trace mode and directory.
    RunPolicy policy;
    Metric metric = Metric::ExecTime;       ///< The metric a sweep plots.
    std::uint32_t maxProcs = 32;            ///< A sweep's largest P.
    unsigned jobs = 1;                      ///< Sweep worker threads.
    ShardSpec shard;                        ///< The shard of a sweep to run.
    const FigureSpec *figure = nullptr;     ///< The kFigures row to sweep.
    const AblationSpec *ablation = nullptr; ///< The kAblations row to run.
    fault::Plan faultPlan;                  ///< Armed around the run.
};

/** The programs that take a row: RunSetting::takers is a mask. */
enum Taker : unsigned
{
    kRunCli = 1u << 0,   ///< run_cli
    kFigure = 1u << 1,   ///< the figure program: which figure, its sweep
    kAblation = 1u << 2, ///< the ablation program
    kServe = 1u << 3,    ///< absim_serve's flags: the service defaults
    kRequest = 1u << 4,  ///< a serve request field
};

/** One row of the table. */
struct RunSetting
{
    std::string_view key;
    /** The JSON type a serve request gives the value; a String setting
     *  takes any scalar's raw token. */
    json::Type type;
    unsigned takers;       ///< The Taker bits of the programs that take it.
    std::string_view help; ///< One usage phrase, with the default.
    std::string valid;     ///< The accepted values, as diagnostics say.

    /** Parse @p text and write it; false, writing nothing, when the
     *  text is not one of the valid values. */
    std::function<bool(std::string_view text, Settings &)> apply;

    /** Why a rejected text is not valid, for a row whose parser can say
     *  more than `valid` does (fault_plan); empty for the others. */
    std::function<std::string(std::string_view text)> why = {};
};

/** Every row, in usage order. */
std::span<const RunSetting> runSettings();

/** The row keyed @p key, or whose flag is @p flag; nullptr if none. */
const RunSetting *findRunSetting(std::string_view key);
const RunSetting *findRunSettingFlag(std::string_view flag);

/** "--" + @p key with '_' spelled '-'. */
std::string flagName(std::string_view key);

/** "ABSIM_" + @p key in capitals. */
std::string envName(std::string_view key);

/** The diagnostic of @p row rejecting @p text, @p name spelling the
 *  setting as its surface does: "invalid <name> value '<text>' (valid:
 *  ...)", with the row's reason, when it gives one, before "valid". */
std::string invalidValue(std::string_view name, std::string_view text,
                         const RunSetting &row);

/** The same diagnostic for a value no row bounds (absim_serve's
 *  --workers and --queue), @p valid naming the accepted values and
 *  @p why, when not empty, the reason before them. */
std::string invalidValue(std::string_view name, std::string_view text,
                         std::string_view valid, std::string_view why = {});

/**
 * Apply the rows any of @p takers takes: first each row's environment
 * variable that is set and not empty, then each
 * "--key value" pair of argv[1..argc) in order, so a flag overrides its
 * variable.  An argument that is no such flag goes to @p rest, which
 * also receives any value that follows it; with @p rest null it is an
 * "unknown option" error.
 * @return false, with the diagnostic in @p error, on the first rejected
 *         value or a flag missing its value.
 */
[[nodiscard]] bool applySettings(unsigned takers, int argc,
                                 const char *const *argv, Settings &out,
                                 std::string &error,
                                 std::vector<std::string> *rest = nullptr);

/** Usage lines of the rows any of @p takers takes. */
std::string runSettingsUsage(unsigned takers);

} // namespace absim::core

#endif // ABSIM_CORE_RUN_SETTINGS_HH
