/**
 * @file
 * Content-addressed cache keys for simulation runs and sweeps.
 *
 * The simulator is deterministic by construction: two runs of the same
 * (app, input, machine, seed, budget) produce bit-identical profiles,
 * so a cached result is *exact*, not approximate.  The serve daemon
 * (src/serve) exploits that by keying its result cache on a canonical
 * rendering of the RunConfig + the deterministic RunBudget fields.
 *
 * Canonicalization rules:
 *
 *  - Field order is fixed by this module, never by the request that
 *    produced the config — two requests spelling the same run in a
 *    different field order hash identically.
 *  - The machine is keyed by its canonical registry *name* ("logp+c"),
 *    so the column alias ("logpc") and the name collapse to one key.
 *  - RunBudget::maxWallSeconds is deliberately EXCLUDED: a wall-clock
 *    deadline is host-dependent and cannot change a deterministic
 *    result, only whether it is produced — a success computed under
 *    any deadline is valid under every other.  The deterministic
 *    budget fields (maxEvents, maxSimTime, stallDispatchLimit) are
 *    included because they can change the outcome (e.g. a budget
 *    failure vs a success).
 *  - A sweep key (canonicalSweepKey) starts "op=sweep;", so it can
 *    never equal a run key (which starts "app="), and names the P
 *    list the sweep runs instead of one procs.
 */

#ifndef ABSIM_CORE_CACHE_KEY_HH
#define ABSIM_CORE_CACHE_KEY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/figures.hh"

namespace absim::core {

/**
 * The canonical one-line rendering of a run's identity.  Stable across
 * releases only by test discipline (tests/test_cache_key.cc pins it);
 * persisted caches store it next to the hash so a mismatch is
 * detectable, not silent.
 */
std::string canonicalRunKey(const RunConfig &config,
                            const sim::RunBudget &budget);

/**
 * The canonical rendering of a sweep's identity:
 * "op=sweep;metric=<name>;procs=<P,...>;" and then canonicalRunKey's
 * fields without procs.  Keyed by @p procs, the list the sweep runs,
 * so config.procs (ignored by a sweep) and max_procs values that
 * select the same list never split the cache.
 */
std::string canonicalSweepKey(const RunConfig &config,
                              const sim::RunBudget &budget, Metric metric,
                              const std::vector<std::uint32_t> &procs);

/** FNV-1a 64-bit hash of @p text. */
std::uint64_t fnv1a64(const std::string &text);

/** The cache key: fnv1a64 of the canonical rendering. */
std::uint64_t runKeyHash(const RunConfig &config,
                         const sim::RunBudget &budget);

/** Fixed-width lowercase hex of a 64-bit key ("00142b..."). */
std::string formatKeyHex(std::uint64_t key);

/** Parse formatKeyHex output (exactly 16 lowercase hex digits). */
[[nodiscard]] bool parseKeyHex(const std::string &text,
                               std::uint64_t &out);

} // namespace absim::core

#endif // ABSIM_CORE_CACHE_KEY_HH
