/**
 * @file
 * Checked numeric parsing for environment knobs and simple argv values.
 *
 * Every ABSIM_* environment variable that used to go through atoi() or
 * a bare strtol() funnels through these helpers instead: garbage,
 * negative or out-of-range values produce a named diagnostic
 * ("error: invalid ABSIM_MAX_PROCS value 'abc' ...") and exit status 2,
 * matching the run_cli flag-validation contract, instead of silently
 * becoming 0 and capping a sweep to nothing.  An unset (or empty)
 * variable always yields the caller's fallback.
 */

#ifndef ABSIM_CORE_ENV_HH
#define ABSIM_CORE_ENV_HH

#include <cstdint>
#include <limits>

#include "core/journal.hh" // ShardSpec
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

/** Read a non-negative floating-point environment knob (same contract
 *  as envUint). */
[[nodiscard]] double envDouble(const char *name, double fallback,
                               double min = 0.0);

/**
 * Read a string environment knob (directory paths, feature toggles).
 * The one sanctioned getenv() outside this funnel's own implementation
 * (absim_lint rule G1 flags any other use).
 * @return nullptr when the variable is unset or empty.
 */
[[nodiscard]] const char *envString(const char *name);

/**
 * Read a shard spec ("K/N", 0 <= K < N) environment knob, e.g.
 * ABSIM_SHARD=1/4.  Unset/empty yields the unsharded default; a
 * malformed spec prints a diagnostic and exits 2.
 */
[[nodiscard]] ShardSpec envShard(const char *name);

} // namespace absim::core

#endif // ABSIM_CORE_ENV_HH
