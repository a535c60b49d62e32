/**
 * @file
 * Line-JSON wire protocol of the absim serve daemon.
 *
 * Requests and responses are JSON objects, one per line, read with the
 * same reader as the sweep journals (json/json.hh).  A request line is
 * exactly one RFC 8259 object, optionally surrounded by JSON
 * whitespace, whose values are all scalars (string, number, true,
 * false, null); an array or object value, a repeated key, trailing
 * bytes, a raw control byte inside a string, or an escape other than
 * `\"` `\\` `\/` `\b` `\f` `\n` `\r` `\t` and `\uXXXX` (four hex
 * digits, no surrogates, decoded to UTF-8) is a bad request.  Responses nest only
 * in the sweep response's fixed-shape arrays.  Request fields may
 * arrive in any order — parsing lands them in a RunConfig/RunPolicy
 * and the cache key is rendered from those in canonical field order,
 * so field order never splits the cache (see core/cache_key.hh).
 *
 * Request ops:
 *
 *   {"op":"ping"}
 *   {"op":"run","app":"is","machine":"logpc","procs":8,...}
 *   {"op":"sweep","app":"fft","machine":"logp+c","metric":"latency",
 *    "max_procs":16,...}
 *   {"op":"stats"}         cache/admission counters
 *   {"op":"drain"}         begin graceful drain (keep serving hits)
 *   {"op":"shutdown"}      drain, then ask the daemon to exit
 *
 * Optional run/sweep fields are the rows of the run-settings table
 * that a request may set (core/run_settings.hh, which holds each one's
 * range; docs/API.md tables them): "app", "size", "seed",
 * "iterations", "variant", "machine", "topology", "procs", "gap",
 * "protocol", "cache_kb", "check" (bool), "deadline_s" (wall-clock
 * budget, watchdog-enforced), "max_events", "max_sim_time",
 * "stall_limit", "retries" (total attempts), "trace" (comma-separated
 * sim trace categories captured into error responses), "fault_plan"
 * (deterministic chaos plan, tests only), and for a sweep "metric" and
 * "max_procs".
 *
 * Response statuses: "ok", "error" (named RunError kind, or
 * "DeadlineExceeded" / "bad-request"), "shed" (admission reject),
 * "draining".  A run's success response, and a complete sweep's, is
 * the byte-exact payload the result cache stores, so a cache hit — in
 * this process or after a crash-restart — repeats the original bytes.
 */

#ifndef ABSIM_SERVE_PROTOCOL_HH
#define ABSIM_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>

#include "core/run_settings.hh"

namespace absim::serve {

/** Extract one numeric field from a JSON object line (e.g. a metric
 *  from a cached run payload). */
[[nodiscard]] bool extractNumber(const std::string &line,
                                 const std::string &key, double &out);

/**
 * A parsed request, ready for the service to execute: the settings
 * its fields wrote (config is the target run, procs the point of a
 * "run"; policy starts from the service's defaults, deadline_s landing
 * in budget.maxWallSeconds; metric and maxProcs shape a "sweep";
 * faultPlan is the deterministic chaos plan, empty for none).
 */
struct Request : core::Settings
{
    std::string op;
};

/**
 * Parse one request line.  @p defaults seeds Request::policy (the
 * service's budgets/retry defaults) before request fields override it.
 * @return false with a named "bad-request" diagnostic in @p error.
 */
[[nodiscard]] bool parseRequest(const std::string &line,
                                const core::RunPolicy &defaults,
                                Request &out, std::string &error);

/** {"status":"ok","op":"ping"} */
std::string pingResponse();

/** The cacheable success payload of a run: all three figure metrics,
 *  stamped with the canonical machine name and the key. */
std::string runResponse(const std::string &keyHex,
                        const core::RunConfig &config,
                        const stats::Profile &profile);

/** Error response; @p errorName is the RunError kind name,
 *  "DeadlineExceeded", or "bad-request". */
std::string errorResponse(const std::string &op,
                          const std::string &errorName,
                          const std::string &message, int attempts = 0,
                          const std::string &trace = "");

/** Deterministic admission reject: {"status":"shed",...}. */
std::string shedResponse(std::size_t queued, std::size_t maxQueue);

/** {"status":"draining","error":"draining"} */
std::string drainingResponse();

} // namespace absim::serve

#endif // ABSIM_SERVE_PROTOCOL_HH
