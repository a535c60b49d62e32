/**
 * @file
 * Checked reading of environment knobs and the argv number rule.
 *
 * Every ABSIM_* run or sweep setting is a row of the run-settings
 * table (core/run_settings.hh), which reads its variable through
 * envString() and checks it against the row.  The knobs that are not
 * run settings (output directories, ABSIM_FSYNC_INTERVAL, the
 * ABSIM_BENCH_* measurement knobs) go through envUint() and
 * envString(): garbage, negative or out-of-range values produce a
 * named diagnostic ("error: invalid ABSIM_FSYNC_INTERVAL value 'abc'
 * ...") and exit status 2 instead of silently becoming 0.  An unset or
 * empty variable always means "not set".
 */

#ifndef ABSIM_CORE_ENV_HH
#define ABSIM_CORE_ENV_HH

#include <cstdint>
#include <limits>

#include "json/json.hh"

namespace absim::core {

/**
 * Argv and environment numbers follow the JSON reader's rule: the whole
 * text is one JSON number token that converts exactly (see
 * json::parseUint), so a flag, a knob and a serve request field accept
 * the same texts.
 */
using json::parseDouble;
using json::parseUint;

/**
 * Read an unsigned integer environment knob.  Unset/empty yields
 * @p fallback; a malformed value or one outside [min, max] prints a
 * diagnostic naming the variable and exits 2.
 */
[[nodiscard]] std::uint64_t
envUint(const char *name, std::uint64_t fallback, std::uint64_t min = 0,
        std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/**
 * Read a string environment knob (directory paths, feature toggles).
 * The one sanctioned getenv() outside this funnel's own implementation
 * (absim_lint rule G1 flags any other use).
 * @return nullptr when the variable is unset or empty.
 */
[[nodiscard]] const char *envString(const char *name);

} // namespace absim::core

#endif // ABSIM_CORE_ENV_HH
