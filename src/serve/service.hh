/**
 * @file
 * The serve daemon's request engine: admission control, a bounded work
 * queue over a fixed worker pool, the content-addressed result cache,
 * per-request deadlines, and graceful drain.
 *
 * Robustness contract (see docs/SERVING.md):
 *
 *  - A request beyond the queue bound gets the deterministic shed
 *    response immediately — admission never blocks, never hangs.
 *  - Cache hits of either op are served inline (no queueing, no
 *    admission charge): a hit is one key and one map lookup, not work.
 *    A complete sweep is cached whole, beside its points' run entries.
 *  - Every run executes under core::runOneSafe with the request's
 *    RunBudget, so a stuck simulation is bounded by the PR 2 watchdog;
 *    "deadline_s" maps to budget.maxWallSeconds and surfaces as a
 *    named DeadlineExceeded error response.
 *  - A tripped invariant (CheckFailed) retries at once with its seed
 *    perturbed, up to RunPolicy::maxAttempts attempts.
 *  - beginDrain() (SIGTERM) finishes admitted work, keeps serving
 *    cache hits, answers everything else with the draining response;
 *    drain() additionally waits for in-flight work and flushes the
 *    cache journal.
 *  - A request's "fault_plan" arms the src/fault chaos hooks on the
 *    executing worker thread for that run only, so tests drive every
 *    failure branch through the real service path.
 */

#ifndef ABSIM_SERVE_SERVICE_HH
#define ABSIM_SERVE_SERVICE_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.hh"
#include "serve/result_cache.hh"

namespace absim::serve {

/** Static configuration of a Service. */
struct ServiceConfig
{
    /** Worker threads executing run/sweep requests. */
    unsigned workers = 2;

    /** Admitted-but-not-started requests beyond which new compute
     *  requests are shed.  0 sheds whenever every worker is busy. */
    std::size_t maxQueue = 16;

    /** Result-cache journal path; "" keeps the cache memory-only. */
    std::string cachePath;

    /** Default budgets/retry policy; request fields override
     *  per-request (see protocol.hh). */
    core::RunPolicy policy;
};

/** Monotonic counters, snapshot by the stats op. */
struct ServiceStats
{
    std::uint64_t received = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t shed = 0;
    std::uint64_t rejectedDraining = 0;
    std::uint64_t badRequests = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t inFlight = 0;
    std::uint64_t queued = 0;
    std::uint64_t cacheEntries = 0;
    bool draining = false;
};

class Service
{
  public:
    explicit Service(const ServiceConfig &config);
    ~Service();
    Service(const Service &) = delete;
    Service &operator=(const Service &) = delete;

    /**
     * Handle one request line and return the response line (never
     * throws; every failure is a named error response).  Blocks while
     * an admitted compute request executes; admin ops and cache hits
     * return immediately, and over-bound requests return the shed
     * response immediately.
     */
    std::string handle(const std::string &line);

    /**
     * Answer a request the transport could not deliver (e.g. a line
     * over the length cap): count it as received and bad, and return
     * its bad-request error response.
     */
    std::string rejectLine(const std::string &message);

    /** Stop admitting compute work (idempotent). */
    void beginDrain();

    /** beginDrain + wait for admitted work + flush/close the cache
     *  journal.  After this the service only answers admin ops, cache
     *  hits and draining responses. */
    void drain();

    bool draining() const { return draining_.load(); }

    /** Set by the shutdown op; the daemon polls it. */
    bool shutdownRequested() const { return shutdown_.load(); }

    /** True if the cache journal recovered a torn tail on open. */
    bool recoveredTornTail() const { return tornOnOpen_; }

    ServiceStats stats() const;

    /** The stats op's response line (also usable without a socket). */
    std::string statsResponse() const;

  private:
    struct Job
    {
        Request request;
        std::promise<std::string> done;
    };

    void workerLoop();
    std::string execute(const Request &request);
    std::string executeRun(const Request &request);
    std::string executeSweep(const Request &request);

    /** Cached-or-computed payload for @p config; "" with @p err filled
     *  on failure. */
    std::string runPoint(const Request &request,
                         const core::RunConfig &config,
                         core::RunError &err);

    ServiceConfig config_;

    mutable std::mutex cacheMutex_;
    ResultCache cache_;
    bool tornOnOpen_ = false;

    mutable std::mutex queueMutex_;
    std::condition_variable workReady_;
    std::condition_variable idle_;
    std::deque<Job *> queue_;
    std::vector<std::thread> workers_;
    bool stopping_ = false;

    std::atomic<bool> draining_{false};
    std::atomic<bool> shutdown_{false};

    std::atomic<std::uint64_t> received_{0};
    std::atomic<std::uint64_t> completed_{0};
    std::atomic<std::uint64_t> failed_{0};
    std::atomic<std::uint64_t> shed_{0};
    std::atomic<std::uint64_t> rejectedDraining_{0};
    std::atomic<std::uint64_t> badRequests_{0};
    std::atomic<std::uint64_t> cacheHits_{0};
    std::atomic<std::uint64_t> cacheMisses_{0};
    std::atomic<std::uint64_t> inFlight_{0};
};

} // namespace absim::serve

#endif // ABSIM_SERVE_SERVICE_HH
