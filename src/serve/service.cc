#include "serve/service.hh"

#include <algorithm>
#include <cstdio>
#include <optional>

#include "core/cache_key.hh"
#include "core/journal.hh"
#include "machines/registry.hh"

namespace absim::serve {

namespace {

/**
 * The response's error name: the RunError kind, except a tripped
 * wall-clock budget — the per-request deadline — which gets its own
 * name so clients can tell "too slow" from "too big".
 */
std::string
responseErrorName(const core::RunError &err)
{
    if (err.kind == core::RunErrorKind::BudgetExceeded &&
        err.message.find("wall-clock budget") != std::string::npos)
        return "DeadlineExceeded";
    return core::toString(err.kind);
}

} // namespace

Service::Service(const ServiceConfig &config) : config_(config)
{
    config_.workers = std::max(1u, config_.workers);
    if (!config_.cachePath.empty()) {
        const bool persistent = cache_.open(config_.cachePath);
        tornOnOpen_ = cache_.recoveredTornTail();
        if (!persistent)
            std::fprintf(stderr,
                         "warning: cannot write result cache '%s'; "
                         "serving without persistence\n",
                         config_.cachePath.c_str());
    }
    workers_.reserve(config_.workers);
    for (unsigned w = 0; w < config_.workers; ++w)
        workers_.emplace_back([this] { workerLoop(); });
}

Service::~Service()
{
    drain();
    {
        const std::lock_guard<std::mutex> lock(queueMutex_);
        stopping_ = true;
    }
    workReady_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

std::string
Service::rejectLine(const std::string &message)
{
    received_.fetch_add(1);
    badRequests_.fetch_add(1);
    return errorResponse("?", "bad-request", message);
}

std::string
Service::handle(const std::string &line)
{
    received_.fetch_add(1);
    Request request;
    std::string parseError;
    if (!parseRequest(line, config_.policy, request, parseError)) {
        badRequests_.fetch_add(1);
        return errorResponse(request.op.empty() ? "?" : request.op,
                             "bad-request", parseError);
    }

    if (request.op == "ping")
        return pingResponse();
    if (request.op == "stats")
        return statsResponse();
    if (request.op == "drain") {
        beginDrain();
        return "{\"status\":\"ok\",\"op\":\"drain\",\"draining\":true}";
    }
    if (request.op == "shutdown") {
        beginDrain();
        shutdown_.store(true);
        return "{\"status\":\"ok\",\"op\":\"shutdown\",\"draining\":true}";
    }

    // Inline fast path: a hit of either op is one key and one lookup,
    // not work — served without admission charge, even while draining.
    // A sweep hit counts one hit per point, as its points would.
    if (request.op == "run" || request.op == "sweep") {
        std::uint64_t key = 0;
        std::uint64_t points = 1;
        if (request.op == "run") {
            key = core::runKeyHash(request.config, request.policy.budget);
        } else {
            const std::vector<std::uint32_t> procs =
                core::procCountsUpTo(request.maxProcs);
            key = core::fnv1a64(core::canonicalSweepKey(
                request.config, request.policy.budget, request.metric,
                procs));
            points = procs.size();
        }
        std::string payload;
        const std::lock_guard<std::mutex> lock(cacheMutex_);
        if (cache_.lookup(key, payload)) {
            cacheHits_.fetch_add(points);
            return payload;
        }
    }

    // Admission: bounded, deterministic, never a hang.  Total
    // outstanding compute (executing + queued) is capped at
    // workers + maxQueue; anything beyond sheds immediately.
    Job job;
    job.request = std::move(request);
    {
        const std::lock_guard<std::mutex> lock(queueMutex_);
        if (draining_.load()) {
            rejectedDraining_.fetch_add(1);
            return drainingResponse();
        }
        if (inFlight_.load() + queue_.size() >=
            config_.workers + config_.maxQueue) {
            shed_.fetch_add(1);
            return shedResponse(queue_.size(), config_.maxQueue);
        }
        queue_.push_back(&job);
    }
    workReady_.notify_one();
    return job.done.get_future().get();
}

void
Service::workerLoop()
{
    for (;;) {
        Job *job = nullptr;
        {
            std::unique_lock<std::mutex> lock(queueMutex_);
            workReady_.wait(
                lock, [&] { return stopping_ || !queue_.empty(); });
            // Admitted work still drains after stop is requested.
            if (queue_.empty())
                return;
            job = queue_.front();
            queue_.pop_front();
            // Under the same lock as the pop, so admission's
            // (inFlight + queued) bound never dips spuriously.
            inFlight_.fetch_add(1);
        }
        std::string response = execute(job->request);
        // The slot frees before the response is delivered: a client that
        // sends its next request on receipt must find room for it.
        {
            const std::lock_guard<std::mutex> lock(queueMutex_);
            inFlight_.fetch_sub(1);
        }
        job->done.set_value(std::move(response));
        idle_.notify_all();
    }
}

std::string
Service::execute(const Request &request)
{
    try {
        // A request's chaos plan arms this worker's injector for the
        // duration of the request only (plans are per-thread, and a
        // serial runOneSafe executes right here).
        std::optional<fault::ScopedPlan> chaos;
        if (!request.faultPlan.empty())
            chaos.emplace(request.faultPlan);
        if (request.op == "sweep")
            return executeSweep(request);
        return executeRun(request);
    } catch (const std::exception &e) {
        failed_.fetch_add(1);
        return errorResponse(request.op, "Panic", e.what());
    } catch (...) {
        failed_.fetch_add(1);
        return errorResponse(request.op, "Panic",
                             "unknown exception escaped the worker");
    }
}

std::string
Service::runPoint(const Request &request, const core::RunConfig &config,
                  core::RunError &err)
{
    const std::string canon =
        core::canonicalRunKey(config, request.policy.budget);
    const std::uint64_t key = core::fnv1a64(canon);
    std::string payload;
    {
        const std::lock_guard<std::mutex> lock(cacheMutex_);
        if (cache_.lookup(key, payload)) {
            cacheHits_.fetch_add(1);
            return payload;
        }
    }
    cacheMisses_.fetch_add(1);
    core::RunResult result = core::runOneSafe(config, request.policy);
    if (!result.ok()) {
        err = std::move(result.error());
        return "";
    }
    payload =
        runResponse(core::formatKeyHex(key), config, result.value());
    {
        const std::lock_guard<std::mutex> lock(cacheMutex_);
        cache_.insert(key, canon, payload);
    }
    return payload;
}

std::string
Service::executeRun(const Request &request)
{
    core::RunError err;
    const std::string payload = runPoint(request, request.config, err);
    if (!payload.empty()) {
        completed_.fetch_add(1);
        return payload;
    }
    failed_.fetch_add(1);
    return errorResponse("run", responseErrorName(err), err.message,
                         err.attempts, err.traceExcerpt);
}

std::string
Service::executeSweep(const Request &request)
{
    // The sweep decomposes into per-P runs that warm — and reuse — the
    // same content-addressed cache the run op serves from.
    const std::vector<std::uint32_t> procs =
        core::procCountsUpTo(request.maxProcs);

    std::string points;
    std::string failures;
    const std::string metricKey = core::toString(request.metric);
    for (const std::uint32_t p : procs) {
        core::RunConfig config = request.config;
        config.procs = p;
        core::RunError err;
        const std::string payload = runPoint(request, config, err);
        if (!payload.empty()) {
            double value = 0.0;
            if (!extractNumber(payload, metricKey, value)) {
                // A cached payload that lost the metric is corruption,
                // not a simulation failure.
                failed_.fetch_add(1);
                return errorResponse("sweep", "Panic",
                                     "cached payload for procs=" +
                                         std::to_string(p) +
                                         " lacks field " + metricKey);
            }
            if (!points.empty())
                points += ',';
            points += "{\"procs\":" + std::to_string(p) +
                      ",\"value\":" + core::formatDouble(value) + "}";
        } else {
            if (!failures.empty())
                failures += ',';
            failures += "{\"procs\":" + std::to_string(p) +
                        ",\"error\":\"" +
                        core::jsonEscape(responseErrorName(err)) +
                        "\",\"message\":\"" +
                        core::jsonEscape(err.message) + "\"";
            if (!err.traceExcerpt.empty())
                failures += ",\"trace\":\"" +
                            core::jsonEscape(err.traceExcerpt) + "\"";
            failures += "}";
        }
    }

    const bool complete = failures.empty();
    if (complete)
        completed_.fetch_add(1);
    else
        failed_.fetch_add(1);
    const std::string response =
        "{\"status\":\"ok\",\"op\":\"sweep\",\"app\":\"" +
        core::jsonEscape(request.config.app) + "\",\"machine\":\"" +
        mach::specFor(request.config.machine).name +
        "\",\"topology\":\"" + net::toString(request.config.topology) +
        "\",\"metric\":\"" + metricKey +
        "\",\"complete\":" + (complete ? "true" : "false") +
        ",\"points\":[" + points + "],\"failures\":[" + failures + "]}";
    // Only a complete curve is cached whole: a failed point must not
    // shadow a later clean run, exactly as a failed run is not cached.
    if (complete) {
        const std::string canon = core::canonicalSweepKey(
            request.config, request.policy.budget, request.metric, procs);
        const std::lock_guard<std::mutex> lock(cacheMutex_);
        cache_.insert(core::fnv1a64(canon), canon, response);
    }
    return response;
}

void
Service::beginDrain()
{
    draining_.store(true);
}

void
Service::drain()
{
    beginDrain();
    {
        std::unique_lock<std::mutex> lock(queueMutex_);
        idle_.wait(lock, [&] {
            return queue_.empty() && inFlight_.load() == 0;
        });
    }
    // In-flight work is done: flush and close the cache journal so
    // every acknowledged entry is durable before the process exits.
    const std::lock_guard<std::mutex> lock(cacheMutex_);
    cache_.close();
}

ServiceStats
Service::stats() const
{
    ServiceStats s;
    s.received = received_.load();
    s.completed = completed_.load();
    s.failed = failed_.load();
    s.shed = shed_.load();
    s.rejectedDraining = rejectedDraining_.load();
    s.badRequests = badRequests_.load();
    s.cacheHits = cacheHits_.load();
    s.cacheMisses = cacheMisses_.load();
    s.inFlight = inFlight_.load();
    {
        const std::lock_guard<std::mutex> lock(queueMutex_);
        s.queued = queue_.size();
    }
    {
        const std::lock_guard<std::mutex> lock(cacheMutex_);
        s.cacheEntries = cache_.size();
    }
    s.draining = draining_.load();
    return s;
}

std::string
Service::statsResponse() const
{
    const ServiceStats s = stats();
    std::string out = "{\"status\":\"ok\",\"op\":\"stats\"";
    out += ",\"received\":" + std::to_string(s.received);
    out += ",\"completed\":" + std::to_string(s.completed);
    out += ",\"failed\":" + std::to_string(s.failed);
    out += ",\"shed\":" + std::to_string(s.shed);
    out += ",\"rejected_draining\":" + std::to_string(s.rejectedDraining);
    out += ",\"bad_requests\":" + std::to_string(s.badRequests);
    out += ",\"cache_hits\":" + std::to_string(s.cacheHits);
    out += ",\"cache_misses\":" + std::to_string(s.cacheMisses);
    out += ",\"cache_entries\":" + std::to_string(s.cacheEntries);
    out += ",\"in_flight\":" + std::to_string(s.inFlight);
    out += ",\"queued\":" + std::to_string(s.queued);
    out += ",\"draining\":";
    out += s.draining ? "true" : "false";
    out += ",\"torn_tail_recovered\":";
    out += tornOnOpen_ ? "true" : "false";
    return out + "}";
}

} // namespace absim::serve
