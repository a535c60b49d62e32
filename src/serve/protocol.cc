#include "serve/protocol.hh"

#include <limits>
#include <stdexcept>

#include "core/journal.hh"
#include "json/json.hh"
#include "machines/registry.hh"
#include "sim/trace.hh"

namespace absim::serve {

bool
extractNumber(const std::string &line, const std::string &key, double &out)
{
    json::Value doc;
    return json::parse(line, doc) && json::getDouble(doc, key, out);
}

namespace {

/** "bad-request: <what>" — every parse failure is a named diagnostic,
 *  never a silent default. */
bool
fail(std::string &error, const std::string &what)
{
    error = what;
    return false;
}

bool
invalid(const json::Member &f, std::string &error)
{
    return fail(error, "invalid " + f.key + " value '" + f.value.text + "'");
}

bool
parseUintField(const json::Member &f, std::uint64_t &out, std::string &error,
               std::uint64_t min, std::uint64_t max)
{
    return (json::toUint(f.value, out) && out >= min && out <= max) ||
           invalid(f, error);
}

} // namespace

bool
parseRequest(const std::string &line, const core::RunPolicy &defaults,
             Request &out, std::string &error)
{
    out = Request{};
    out.policy = defaults;
    json::Value doc;
    std::string why;
    if (!json::parse(line, doc, &why))
        return fail(error, "malformed request line: " + why);
    if (doc.type != json::Type::Object)
        return fail(error, "malformed request line (JSON object expected)");

    bool sawOp = false;
    for (const json::Member &f : doc.members) {
        if (f.value.type == json::Type::Array ||
            f.value.type == json::Type::Object)
            return fail(error, "field '" + f.key + "' must be a scalar");
        // String fields take a number's raw token too, so "op":1 is an
        // unknown op '1', not a silent default.
        const std::string &value = f.value.text;
        std::uint64_t u = 0;
        if (f.key == "op") {
            out.op = value;
            sawOp = true;
        } else if (f.key == "app") {
            out.config.app = value;
        } else if (f.key == "size") {
            if (!parseUintField(f, u, error, 1, 1u << 26))
                return false;
            out.config.params.n = u;
        } else if (f.key == "seed") {
            if (!parseUintField(f, u, error, 0,
                                std::numeric_limits<std::uint64_t>::max()))
                return false;
            out.config.params.seed = u;
        } else if (f.key == "iterations") {
            if (!parseUintField(f, u, error, 0, 1u << 20))
                return false;
            out.config.params.iterations =
                static_cast<std::uint32_t>(u);
        } else if (f.key == "variant") {
            out.config.params.variant = value;
        } else if (f.key == "machine") {
            if (!mach::parseMachineKind(value, out.config.machine))
                return fail(error, "unknown machine '" + value +
                                       "' (valid: " + mach::machineNames() +
                                       ")");
        } else if (f.key == "topology") {
            if (value == "full")
                out.config.topology = net::TopologyKind::Full;
            else if (value == "cube")
                out.config.topology = net::TopologyKind::Hypercube;
            else if (value == "mesh")
                out.config.topology = net::TopologyKind::Mesh2D;
            else
                return fail(error, "unknown topology '" + value +
                                       "' (valid: full, cube, mesh)");
        } else if (f.key == "procs") {
            if (!parseUintField(f, u, error, 1, 1u << 20))
                return false;
            out.config.procs = static_cast<std::uint32_t>(u);
        } else if (f.key == "max_procs") {
            if (!parseUintField(f, u, error, 1, 1u << 20))
                return false;
            out.maxProcs = static_cast<std::uint32_t>(u);
        } else if (f.key == "gap") {
            if (value == "single")
                out.config.gapPolicy = logp::GapPolicy::Single;
            else if (value == "per-direction")
                out.config.gapPolicy = logp::GapPolicy::PerDirection;
            else if (value == "bisection")
                out.config.gapPolicy = logp::GapPolicy::BisectionOnly;
            else
                return fail(error,
                            "unknown gap policy '" + value +
                                "' (valid: single, per-direction, "
                                "bisection)");
        } else if (f.key == "protocol") {
            if (value == "berkeley")
                out.config.protocol = mach::ProtocolKind::Berkeley;
            else if (value == "msi")
                out.config.protocol = mach::ProtocolKind::Msi;
            else
                return fail(error, "unknown protocol '" + value +
                                       "' (valid: berkeley, msi)");
        } else if (f.key == "cache_kb") {
            if (!parseUintField(f, u, error, 1, 1u << 20))
                return false;
            out.config.cache.bytes =
                static_cast<std::uint32_t>(u) * 1024u;
        } else if (f.key == "check") {
            if (f.value.type != json::Type::Bool)
                return invalid(f, error);
            out.config.checkResult = value == "true";
        } else if (f.key == "metric") {
            if (value == "exec" || value == "exec_time")
                out.metric = core::Metric::ExecTime;
            else if (value == "latency")
                out.metric = core::Metric::Latency;
            else if (value == "contention")
                out.metric = core::Metric::Contention;
            else
                return fail(error,
                            "unknown metric '" + value +
                                "' (valid: exec, latency, contention)");
        } else if (f.key == "deadline_s") {
            if (!json::toDouble(f.value, out.policy.budget.maxWallSeconds) ||
                out.policy.budget.maxWallSeconds < 0.0)
                return invalid(f, error);
        } else if (f.key == "max_events") {
            if (!parseUintField(f, out.policy.budget.maxEvents, error, 0,
                                std::numeric_limits<std::uint64_t>::max()))
                return false;
        } else if (f.key == "max_sim_time") {
            if (!parseUintField(f, u, error, 0,
                                std::numeric_limits<std::uint64_t>::max()))
                return false;
            out.policy.budget.maxSimTime = static_cast<sim::Tick>(u);
        } else if (f.key == "stall_limit") {
            if (!parseUintField(f, out.policy.budget.stallDispatchLimit,
                                error, 0,
                                std::numeric_limits<std::uint64_t>::max()))
                return false;
        } else if (f.key == "retries") {
            if (!parseUintField(f, u, error, 1, 100))
                return false;
            out.policy.maxAttempts = static_cast<int>(u);
        } else if (f.key == "backoff_ms") {
            if (!parseUintField(f, u, error, 0, 60'000))
                return false;
            out.policy.retryBackoffMs = static_cast<std::uint32_t>(u);
        } else if (f.key == "trace") {
            if (!sim::parseTraceMask(value, out.policy.traceMask))
                return fail(error,
                            "invalid trace categories '" + value +
                                "' (valid: protocol, network, logp, "
                                "runtime, all)");
        } else if (f.key == "fault_plan") {
            try {
                out.faultPlan = fault::Plan::parse(value);
                out.faultPlanText = value;
            } catch (const std::invalid_argument &e) {
                return fail(error, "invalid fault_plan: " +
                                       std::string(e.what()));
            }
        } else {
            return fail(error, "unknown field '" + f.key + "'");
        }
    }
    if (!sawOp)
        return fail(error, "missing op field");
    if (out.op != "ping" && out.op != "run" && out.op != "sweep" &&
        out.op != "stats" && out.op != "drain" && out.op != "shutdown")
        return fail(error, "unknown op '" + out.op +
                               "' (valid: ping, run, sweep, stats, "
                               "drain, shutdown)");
    if (out.op == "run" || out.op == "sweep") {
        try {
            (void)apps::makeApp(out.config.app);
        } catch (const std::invalid_argument &) {
            return fail(error, "unknown app '" + out.config.app +
                                   "' (valid: " +
                                   [] {
                                       std::string names;
                                       for (const std::string &n :
                                            apps::appNames()) {
                                           if (!names.empty())
                                               names += ", ";
                                           names += n;
                                       }
                                       return names;
                                   }() +
                                   ")");
        }
    }
    return true;
}

std::string
pingResponse()
{
    return "{\"status\":\"ok\",\"op\":\"ping\"}";
}

std::string
runResponse(const std::string &keyHex, const core::RunConfig &config,
            const stats::Profile &profile)
{
    std::string out = "{\"status\":\"ok\",\"op\":\"run\",\"key\":\"" +
                      keyHex + "\",\"app\":\"" +
                      core::jsonEscape(config.app) + "\",\"machine\":\"" +
                      mach::specFor(config.machine).name +
                      "\",\"topology\":\"" +
                      net::toString(config.topology) +
                      "\",\"procs\":" + std::to_string(config.procs);
    out += ",\"exec_time\":" + core::formatDouble(core::metricValue(
                                   profile, core::Metric::ExecTime));
    out += ",\"latency\":" + core::formatDouble(core::metricValue(
                                 profile, core::Metric::Latency));
    out += ",\"contention\":" + core::formatDouble(core::metricValue(
                                    profile, core::Metric::Contention));
    return out + "}";
}

std::string
errorResponse(const std::string &op, const std::string &errorName,
              const std::string &message, int attempts,
              const std::string &trace)
{
    std::string out = "{\"status\":\"error\",\"op\":\"" +
                      core::jsonEscape(op) + "\",\"error\":\"" +
                      core::jsonEscape(errorName) + "\",\"message\":\"" +
                      core::jsonEscape(message) + "\"";
    if (attempts > 0)
        out += ",\"attempts\":" + std::to_string(attempts);
    if (!trace.empty())
        out += ",\"trace\":\"" + core::jsonEscape(trace) + "\"";
    return out + "}";
}

std::string
shedResponse(std::size_t queued, std::size_t maxQueue)
{
    return "{\"status\":\"shed\",\"error\":\"admission-reject\","
           "\"message\":\"queue full; retry later\",\"queued\":" +
           std::to_string(queued) +
           ",\"max_queue\":" + std::to_string(maxQueue) + "}";
}

std::string
drainingResponse()
{
    return "{\"status\":\"draining\",\"error\":\"draining\","
           "\"message\":\"service is draining; no new work accepted\"}";
}

} // namespace absim::serve
