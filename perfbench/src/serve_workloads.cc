/**
 * @file
 * The serve workload, serve_hit: one client in a closed loop (it sends
 * the next request only after the previous response arrives) against
 * the real absim_serve daemon over its Unix socket, with one worker
 * thread.
 *
 * The requests are the benchmark's two figures (Figure 14 and the FFT
 * mesh figure the sweep workloads run) at --seed, asked for the way
 * docs/SERVING.md describes repeated figure requests: a sweep op per
 * curve and a run op per point, over and over.  Set-up computes them
 * once, so every timed request is a cache hit.  Which ops real clients
 * send, and in what proportion, is not recorded anywhere; this mix is
 * an assumption.
 *
 * The traced pass sends the same request sequence through an
 * in-process serve::Service, with a span around each serve-layer call,
 * and the figures' run ops once more through a Service with an empty
 * cache, where each one misses.
 */

#include <algorithm>
#include <csignal>
#include <filesystem>
#include <iostream>
#include <thread>

#include "core/cache_key.hh"
#include "core/env.hh"
#include "core/experiment.hh"
#include "machines/registry.hh"
#include "process.hh"
#include "serve/protocol.hh"
#include "serve/result_cache.hh"
#include "serve/service.hh"
#include "workloads.hh"

namespace absim::perfbench {

namespace {

namespace fs = std::filesystem;

/** Points per workload whose payload is also computed in-process
 *  (served ≡ direct). */
constexpr std::size_t kDirectChecks = 10;
/** Daemon starts whose start-to-first-ping time is set-up. */
constexpr int kStarts = 41;
/** Requests the traced pass replays in-process, at most. */
constexpr std::size_t kTracedRequests = 20000;
/** How long the timed requests stay on one CPU. */
constexpr double kMoveSeconds = 0.5;

const FigureSpec *const kFigures[] = {&kIsFull, &kFftMesh};

/** The fields every request for @p grid carries. */
std::string
gridFields(const Grid &grid)
{
    return std::string("\"app\":\"") + grid.base.app +
           "\",\"size\":" + std::to_string(grid.base.params.n) +
           ",\"seed\":" + std::to_string(grid.base.params.seed) +
           ",\"topology\":\"" + net::toString(grid.base.topology) + "\"";
}

std::string
runLine(const Grid &grid, std::size_t cell)
{
    const core::RunConfig config = grid.cell(cell);
    return "{\"op\":\"run\"," + gridFields(grid) + ",\"machine\":\"" +
           mach::specFor(config.machine).name +
           "\",\"procs\":" + std::to_string(config.procs) + "}";
}

std::string
sweepLine(const Grid &grid, mach::MachineKind machine)
{
    return "{\"op\":\"sweep\"," + gridFields(grid) + ",\"machine\":\"" +
           mach::specFor(machine).name +
           "\",\"metric\":\"exec_time\",\"max_procs\":" +
           std::to_string(grid.procs.back()) + "}";
}

bool
isRun(const std::string &line)
{
    return line.rfind("{\"op\":\"run\"", 0) == 0;
}

/** The figures at input @p seed. */
std::vector<Grid>
figureGrids(std::uint64_t seed)
{
    std::vector<Grid> grids;
    for (const FigureSpec *figure : kFigures)
        grids.emplace_back(*figure, seed);
    return grids;
}

/** One round: per figure, its curves, then its points. */
std::vector<std::string>
figureRequests(const std::vector<Grid> &grids)
{
    std::vector<std::string> lines;
    for (const Grid &grid : grids) {
        for (const mach::MachineKind machine : grid.machines)
            lines.push_back(sweepLine(grid, machine));
        for (std::size_t c = 0; c < grid.cells(); ++c)
            lines.push_back(runLine(grid, c));
    }
    return lines;
}

constexpr const char *kSocket = "serve.sock";

/** The daemon under test, one worker thread, one client connection. */
class Daemon
{
  public:
    Daemon(const Options &options, std::string cachePath)
        : options_(options), cachePath_(std::move(cachePath))
    {
    }

    ~Daemon() { (void)stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Start it and wait for the first ping answer.
     *  @return seconds from spawn to that answer, or < 0 on failure. */
    double
    start()
    {
        std::error_code ec;
        fs::remove(kSocket, ec);
        const double begin = wallNow();
        if (!child_.start({options_.serveBin, "--socket", kSocket,
                           "--workers", "1", "--cache", cachePath_},
                          false, options_.outDir + "/serve.log"))
            return -1.0;
        while (!client_.connect(kSocket)) {
            if (wallNow() - begin > 30.0)
                return -1.0;
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        std::string response;
        if (!client_.request("{\"op\":\"ping\"}", response) ||
            response != serve::pingResponse())
            return -1.0;
        return wallNow() - begin;
    }

    [[nodiscard]] bool
    request(const std::string &line, std::string &response)
    {
        return client_.request(line, response);
    }

    /** The counters of one stats op. */
    struct Stats
    {
        std::string line;

        /** One counter, or -1 if the line lacks it. */
        double
        operator[](const std::string &key) const
        {
            double value = -1.0;
            return serve::extractNumber(line, key, value) ? value : -1.0;
        }
    };

    Stats
    stats()
    {
        Stats s;
        (void)client_.request("{\"op\":\"stats\"}", s.line);
        return s;
    }

    double peakRss() const { return peakRssMb(child_.pid()); }
    pid_t pid() const { return child_.pid(); }

    /** Shut it down; true on a clean exit.  SIGTERM drains the daemon
     *  as the shutdown op does, but wakes its accept loop at once
     *  instead of at the loop's next 200 ms poll timeout. */
    bool
    stop()
    {
        if (!child_.running())
            return true;
        client_.close();
        ::kill(child_.pid(), SIGTERM);
        return child_.wait(10.0) == 0;
    }

  private:
    const Options &options_;
    std::string cachePath_;
    Child child_;
    LineClient client_;
};

/** The success payload a direct in-process run of @p line produces. */
std::string
directPayload(const std::string &line)
{
    serve::Request request;
    std::string error;
    if (!serve::parseRequest(line, core::RunPolicy{}, request, error))
        return "bad-request: " + error;
    const std::uint64_t key =
        core::runKeyHash(request.config, request.policy.budget);
    return serve::runResponse(core::formatKeyHex(key), request.config,
                              core::runOne(request.config));
}

/** Served ≡ direct for the first kDirectChecks run requests of @p lines. */
void
checkDirect(const std::vector<std::string> &lines,
            const std::vector<std::string> &payloads, Result &result)
{
    std::size_t checked = 0;
    for (std::size_t i = 0; i < lines.size() && checked < kDirectChecks;
         ++i) {
        if (!isRun(lines[i]))
            continue;
        ++checked;
        if (payloads[i] != directPayload(lines[i]))
            result.fail("served != direct for " + lines[i]);
    }
}

bool
isOk(const std::string &response)
{
    return response.rfind("{\"status\":\"ok\"", 0) == 0;
}

/** Send one request, check it, and count it. */
bool
send(Daemon &daemon, const std::string &line, std::string &response,
     Result &result)
{
    ++result.attempted;
    if (!daemon.request(line, response)) {
        ++result.failed;
        result.fail("connection to absim_serve lost");
        return false;
    }
    if (!isOk(response)) {
        ++result.failed;
        result.fail("request " + line + " answered " + response);
        return false;
    }
    return true;
}

/** The counters of a daemon's stats op the checks use. */
struct Counts
{
    double hits = 0.0;
    double misses = 0.0;
    double failed = 0.0;
    double shed = 0.0;
};

/** Ask @p daemon for its counters; they must agree with what the
 *  client sent: @p hits hits, @p misses misses, nothing failed or
 *  shed. */
Counts
checkStats(Daemon &daemon, double hits, double misses, Result &result)
{
    const Daemon::Stats stats = daemon.stats();
    const Counts got{stats["cache_hits"], stats["cache_misses"],
                     stats["failed"], stats["shed"]};
    if (got.hits != hits || got.misses != misses || got.failed != 0.0 ||
        got.shed != 0.0)
        result.fail("absim_serve stats cache_hits=" + formatExact(got.hits) +
                    " cache_misses=" + formatExact(got.misses) +
                    " failed=" + formatExact(got.failed) +
                    " shed=" + formatExact(got.shed) + ", expected " +
                    formatExact(hits) + " hits, " + formatExact(misses) +
                    " misses, 0 failed, 0 shed");
    return got;
}

/** The values of a sweep response's points, in P order. */
std::vector<double>
sweepValues(const std::string &response)
{
    std::vector<double> values;
    const std::string field = "\"value\":";
    for (std::size_t at = response.find(field); at != std::string::npos;
         at = response.find(field, at + 1)) {
        const std::size_t begin = at + field.size();
        const std::size_t end = response.find_first_of(",}", begin);
        double v = 0.0;
        if (end == std::string::npos ||
            !core::parseDouble(response.substr(begin, end - begin).c_str(),
                               v))
            return {};
        values.push_back(v);
    }
    return values;
}

/**
 * The figures as the daemon served them: each sweep curve must equal
 * the exec_time of the run payloads of its points, and at the default
 * seed and full scale each figure's value sum (point-major, as the
 * sweep workloads add it) must equal its golden.
 */
void
checkServedFigures(const Options &options, const std::vector<Grid> &grids,
                   const std::vector<std::string> &payloads, Result &result)
{
    std::size_t at = 0;
    for (const Grid &grid : grids) {
        const std::size_t stacks = grid.machines.size();
        std::vector<double> figure(grid.cells(), 0.0);
        for (std::size_t m = 0; m < stacks; ++m) {
            const std::vector<double> curve = sweepValues(payloads[at + m]);
            if (curve.size() != grid.procs.size()) {
                result.fail("sweep response has " +
                            std::to_string(curve.size()) + " points, want " +
                            std::to_string(grid.procs.size()) + ": " +
                            payloads[at + m]);
                return;
            }
            for (std::size_t p = 0; p < curve.size(); ++p)
                figure[p * stacks + m] = curve[p];
        }
        at += stacks;
        for (std::size_t c = 0; c < grid.cells(); ++c, ++at) {
            double exec = 0.0;
            if (!serve::extractNumber(payloads[at], "exec_time", exec) ||
                exec != figure[c])
                result.fail("simulated results changed: sweep and run "
                            "ops disagree on " +
                            runLine(grid, c));
        }
        if (options.seed == Options{}.seed && grid.fullScale() &&
            valueSum(figure) != grid.figure.goldenValueSum)
            result.fail("simulated results changed: served " +
                        std::string(grid.figure.title) + " value_sum_us = " +
                        formatExact(valueSum(figure)) + ", expected " +
                        formatExact(grid.figure.goldenValueSum));
    }
}

void
copyFile(const std::string &from, const std::string &to)
{
    fs::copy_file(from, to, fs::copy_options::overwrite_existing);
}

/**
 * The traced pass: the first kTracedRequests requests of @p order
 * (indices into @p lines) go through an in-process Service twice,
 * plain and then with a span around each serve-layer call, starting
 * from the warm cache in @p journal.  @p socketLatency holds the
 * daemon's latency for the same requests (for serve.transport_us).
 * Then every run op of @p lines goes once through a Service with an
 * empty cache, where it misses.
 */
void
tracedServe(const Options &options, const std::vector<std::string> &lines,
            const std::vector<std::string> &expected,
            std::vector<std::size_t> order,
            const std::vector<double> &socketLatency,
            const std::string &journal, Result &result)
{
    if (order.size() > kTracedRequests)
        order.resize(kTracedRequests);
    const std::string plainCache = "traced_plain.jsonl";
    const std::string spanCache = "traced_spans.jsonl";
    const std::string missCache = "traced_miss.jsonl";
    const std::string insertCache = "traced_insert.jsonl";
    copyFile(journal, plainCache);
    copyFile(journal, spanCache);
    fs::remove(missCache);
    fs::remove(insertCache);
    serve::ServiceConfig config;
    config.workers = 1;

    std::vector<double> plain;
    {
        config.cachePath = plainCache;
        serve::Service service(config);
        for (const std::size_t i : order) {
            const double t = wallNow();
            const std::string response = service.handle(lines[i]);
            plain.push_back(wallNow() - t);
            if (response != expected[i])
                result.fail("in-process response differs from the "
                            "daemon's for " + lines[i]);
        }
    }

    SpanLog log;
    {
        config.cachePath = spanCache;
        serve::Service service(config);
        for (std::size_t r = 0; r < order.size(); ++r) {
            const std::string &line = lines[order[r]];
            const auto item = static_cast<std::int64_t>(r);
            SpanLog::Scope request(log, "serve.request", item);
            serve::Request parsed;
            std::string error;
            {
                SpanLog::Scope span(log, "serve.parse", item);
                if (!serve::parseRequest(line, core::RunPolicy{}, parsed,
                                         error))
                    result.fail("bad request " + line + ": " + error);
            }
            if (isRun(line)) {
                SpanLog::Scope span(log, "core.cache_key", item);
                (void)core::runKeyHash(parsed.config, parsed.policy.budget);
            }
            std::string response;
            {
                SpanLog::Scope span(log, "serve.handle_hit", item);
                response = service.handle(line);
            }
            if (response != expected[order[r]])
                result.fail("traced response differs from the daemon's "
                            "for " + line);
        }
    }

    // Every point once more, into an empty cache: each run op misses.
    std::size_t misses = 0;
    {
        config.cachePath = missCache;
        serve::Service service(config);
        for (std::size_t i = 0; i < lines.size(); ++i) {
            if (!isRun(lines[i]))
                continue;
            ++misses;
            std::string response;
            {
                SpanLog::Scope span(log, "serve.handle_miss",
                                    static_cast<std::int64_t>(i));
                response = service.handle(lines[i]);
            }
            if (response != expected[i])
                result.fail("in-process miss differs from the daemon's "
                            "payload for " + lines[i]);
        }
    }

    // Journal appends of the same run payloads into an empty cache.
    {
        serve::ResultCache cache;
        if (!cache.open(insertCache))
            result.fail("cannot open " + insertCache);
        for (std::size_t i = 0; i < lines.size(); ++i) {
            if (!isRun(lines[i]))
                continue;
            serve::Request parsed;
            std::string error;
            (void)serve::parseRequest(lines[i], core::RunPolicy{}, parsed,
                                      error);
            const std::string canon = core::canonicalRunKey(
                parsed.config, parsed.policy.budget);
            SpanLog::Scope span(log, "serve.cache_insert",
                                static_cast<std::int64_t>(i));
            cache.insert(core::fnv1a64(canon), canon, expected[i]);
        }
    }
    // Re-opening the daemon's journal is the cache's share of a restart.
    for (int i = 0; i < kStarts; ++i) {
        serve::ResultCache cache;
        SpanLog::Scope span(log, "serve.cache_open");
        (void)cache.open(journal);
    }

    std::vector<double> transport;
    for (std::size_t r = 0; r < order.size(); ++r)
        transport.push_back(socketLatency[r] - plain[r]);
    const auto medianOf = [&](const char *name) {
        return quantile(log.durations(name), 0.5);
    };
    const auto sum = [](const std::vector<double> &v) {
        double total = 0.0;
        for (const double d : v)
            total += d;
        return total;
    };
    // What the span log adds to a request: the traced request minus the
    // parse and key calls it repeats for attribution, over the plain one.
    const double tracedSeconds = sum(log.durations("serve.request")) -
                                 sum(log.durations("serve.parse")) -
                                 sum(log.durations("core.cache_key"));
    const double plainSeconds = sum(plain);

    result.attempted += 2 * order.size() + misses;
    result.add("core.cache_key_us", "us", medianOf("core.cache_key") * 1e6);
    result.add("serve.parse_us", "us", medianOf("serve.parse") * 1e6);
    result.add("serve.handle_hit_us", "us",
               medianOf("serve.handle_hit") * 1e6);
    result.add("serve.transport_us", "us", quantile(transport, 0.5) * 1e6);
    result.add("serve.handle_miss_ms", "ms",
               medianOf("serve.handle_miss") * 1e3);
    result.add("serve.cache_insert_us", "us",
               medianOf("serve.cache_insert") * 1e6);
    result.add("serve.cache_open_ms", "ms",
               medianOf("serve.cache_open") * 1e3);
    result.add("trace_overhead_frac", "frac",
               plainSeconds > 0.0 ? tracedSeconds / plainSeconds - 1.0
                                  : 0.0);

    const std::map<std::string, double> counters = {
        {"requests", static_cast<double>(order.size())},
        {"misses", static_cast<double>(misses)},
        {"plain_request_s", quantile(plain, 0.5)},
        {"socket_request_s",
         quantile(std::vector<double>(
                      socketLatency.begin(),
                      socketLatency.begin() +
                          static_cast<std::ptrdiff_t>(order.size())),
                  0.5)},
    };
    const std::string tracePath =
        options.outDir + "/TRACE_" + options.workload + ".json";
    if (!log.write(tracePath, options.workload, counters))
        std::cerr << "warning: cannot write " << tracePath << "\n";
    for (const std::string &f : {plainCache, spanCache, missCache,
                                 insertCache})
        fs::remove(f);
}

/** Start @p daemon kStarts times, each on the next CPU; all but the
 *  last are stopped again.
 *  @return the start-to-first-ping times, empty on failure. */
std::vector<double>
startDaemon(Daemon &daemon, CpuRotation &cpus, Result &result)
{
    std::vector<double> setup;
    for (int i = 0; i < kStarts; ++i) {
        cpus.next();
        const double seconds = daemon.start();
        if (seconds < 0.0) {
            result.fail("absim_serve did not start (see serve.log)");
            return {};
        }
        setup.push_back(seconds);
        if (i + 1 < kStarts && !daemon.stop())
            result.fail("absim_serve did not shut down cleanly");
    }
    return setup;
}

} // namespace

Result
runServeWorkload(const Options &options, CpuRotation &cpus)
{
    Result result;
    const std::vector<Grid> grids = figureGrids(options.seed);
    const std::vector<std::string> lines = figureRequests(grids);
    const std::string cache = "hit_cache.jsonl";
    fs::remove(cache);

    // Set-up, part one: one round into an empty cache computes every
    // point (inside the sweep ops; the run ops after them hit).
    std::vector<std::string> payloads;
    double cells = 0.0;
    for (const Grid &grid : grids)
        cells += static_cast<double>(grid.cells());
    {
        Daemon daemon(options, cache);
        if (daemon.start() < 0.0) {
            result.fail("absim_serve did not start (see serve.log)");
            return result;
        }
        for (const std::string &line : lines) {
            std::string response;
            if (!send(daemon, line, response, result))
                return result;
            payloads.push_back(response);
        }
        (void)checkStats(daemon, cells, cells, result);
        if (!daemon.stop())
            result.fail("absim_serve did not shut down cleanly");
    }
    checkServedFigures(options, grids, payloads, result);
    checkDirect(lines, payloads, result);

    // Set-up, part two: restarts on the warm journal until the first
    // ping answers; the last daemon stays up.
    Daemon daemon(options, cache);
    const std::vector<double> setup = startDaemon(daemon, cpus, result);
    if (setup.empty())
        return result;

    // Every response must repeat the first round's bytes, after the
    // restarts too (fresh ≡ resumed).
    const double budget = options.trace ? options.seconds / 3.0
                                        : options.seconds;
    Passes latency;
    std::vector<std::size_t> order;
    const double begin = wallNow();
    do {
        cpus.every(kMoveSeconds, daemon.pid());
        for (std::size_t i = 0; i < lines.size(); ++i) {
            std::string response;
            const double t = wallNow();
            if (!send(daemon, lines[i], response, result))
                return result;
            latency.add(i, wallNow() - t);
            // Reported once: a broken cache would repeat it per request.
            if (response != payloads[i] && result.correct)
                result.fail("response differs from the first round's for " +
                            lines[i]);
            if (options.trace && order.size() < kTracedRequests)
                order.push_back(i);
        }
        latency.endPass();
    } while (wallNow() - begin < budget);
    const Counts counts = checkStats(
        daemon, 2.0 * cells * static_cast<double>(latency.passes()), 0.0,
        result);
    const double peakRss = daemon.peakRss();
    if (!daemon.stop())
        result.fail("absim_serve did not shut down cleanly");

    if (options.trace) {
        result.add("serve.cache_hits", "count", counts.hits);
        result.add("serve.cache_misses", "count", counts.misses);
        result.add("serve.shed", "count", counts.shed);
        tracedServe(options, lines, payloads, order, latency.samples(),
                    cache, result);
        return result;
    }
    result.addLatency("op_p50_ms", latency, 0.5);
    result.addLatency("op_p90_ms", latency, 0.9);
    result.addThroughput("ops_per_s", latency);
    result.addMedian("setup_s", "s", setup);
    result.add("peak_rss_mb", "MB", peakRss);
    return result;
}

} // namespace absim::perfbench
