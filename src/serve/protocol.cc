#include "serve/protocol.hh"

#include "core/journal.hh"
#include "json/json.hh"
#include "machines/registry.hh"

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
        const std::string &value = f.value.text;
        if (f.key == "op") {
            out.op = value;
            sawOp = true;
        } else if (const core::RunSetting *setting =
                       core::findRunSetting(f.key);
                   setting != nullptr &&
                   (setting->takers & core::kRequest) != 0) {
            // A String setting, like op, takes any scalar's raw token,
            // so "app":1 is an invalid app '1', never a silent default.
            if ((setting->type != json::Type::String &&
                 setting->type != f.value.type) ||
                !setting->apply(value, out))
                return fail(error,
                            core::invalidValue(f.key, value, *setting));
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
