/**
 * @file
 * The run-settings table: the one place a run setting is spelled,
 * bounded and parsed.
 *
 * One row per RunConfig/RunPolicy field a caller sets by name.  Its key
 * is the serve request's JSON key, its flag "--" plus the key with '_'
 * spelled '-' (flagName()), and its apply() parses a text, checks the
 * row's one range and writes the value.  Every surface prints a
 * rejection as invalidValue(name, text, row.valid).  Numbers follow
 * json::parseUint/parseDouble, so run_cli's argv, absim_serve's flags
 * and a serve request field accept the same texts and values.
 */

#ifndef ABSIM_CORE_RUN_SETTINGS_HH
#define ABSIM_CORE_RUN_SETTINGS_HH

#include <functional>
#include <span>
#include <string>
#include <string_view>

#include "core/experiment.hh"
#include "core/figures.hh"
#include "json/json.hh"

namespace absim::core {

/** One row of the table. */
struct RunSetting
{
    std::string_view key;
    /** The JSON type a serve request gives the value; a String setting
     *  takes any scalar's raw token. */
    json::Type type;
    bool policy;           ///< Writes the RunPolicy, not the RunConfig.
    std::string_view help; ///< One usage phrase, with the default.
    std::string valid;     ///< The accepted values, as diagnostics say.

    /** Parse @p text and write it; false, writing nothing, when the
     *  text is not one of the valid values. */
    std::function<bool(std::string_view text, RunConfig &, RunPolicy &)>
        apply;
};

/** Every row, in usage order. */
std::span<const RunSetting> runSettings();

/** The row keyed @p key, or whose flag is @p flag; nullptr if none. */
const RunSetting *findRunSetting(std::string_view key);
const RunSetting *findRunSettingFlag(std::string_view flag);

/** "--" + @p key with '_' spelled '-'. */
std::string flagName(std::string_view key);

/** The diagnostic of a rejected value, @p name spelling the setting
 *  as its surface does: "invalid <name> value '<text>' (valid: ...)". */
std::string invalidValue(std::string_view name, std::string_view text,
                         std::string_view valid);

/** Usage lines of the rows, or of the policy rows only. */
std::string runSettingsUsage(bool policyOnly = false);

/** The metric names parseMetric() takes: "exec", then kMetricNames. */
std::string metricNames();

/** Parse one of metricNames() ("exec" is exec_time); on a rejection
 *  @p error is the invalidValue() diagnostic. */
[[nodiscard]] bool parseMetric(std::string_view text, std::string_view name,
                               Metric &out, std::string &error);

} // namespace absim::core

#endif // ABSIM_CORE_RUN_SETTINGS_HH
