/**
 * @file
 * Chaos suite for the serve service path: every failure branch of the
 * daemon is driven end-to-end through Service::handle with src/fault
 * plans carried in the request itself — wedge, corrupt, drop, stall —
 * plus the deadline, overload-shed and graceful-drain branches.
 *
 * Lives in the leak-check-exempt chaos binary: wedged fibers abandon
 * their stacks by design (see tests/CMakeLists.txt).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

#include "serve/service.hh"

namespace {

using namespace absim;

/** Service with paranoid budgets so no injected fault can hang it. */
serve::ServiceConfig
chaosServiceConfig(unsigned workers = 1, std::size_t maxQueue = 4)
{
    serve::ServiceConfig config;
    config.workers = workers;
    config.maxQueue = maxQueue;
    // One attempt by default so an injected fault surfaces instead of
    // being healed by the policy retry (the retry test opts back in).
    config.policy.maxAttempts = 1;
    config.policy.budget.maxEvents = 500'000;
    config.policy.budget.stallDispatchLimit = 100'000;
    return config;
}

/** A run request against the target machine with @p extra fields. */
std::string
chaosRun(const std::string &extra)
{
    return "{\"op\":\"run\",\"app\":\"is\",\"machine\":\"target\","
           "\"procs\":4,\"size\":256" +
           (extra.empty() ? "" : "," + extra) + "}";
}

/** Wait until @p n requests are executing (never longer than ~4s). */
bool
awaitInFlight(serve::Service &service, std::uint64_t n = 1)
{
    for (int i = 0; i < 800; ++i) {
        if (service.stats().inFlight == n)
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
}

TEST(ServeChaos, WedgedFiberSurfacesAsNamedErrorResponse)
{
    serve::Service service(chaosServiceConfig());
    const std::string response = service.handle(
        chaosRun("\"fault_plan\":\"wedge@50:node=1\""));
    EXPECT_NE(response.find("\"status\":\"error\""), std::string::npos)
        << response;
    // Peers spinning at a barrier exhaust the event budget; an app that
    // blocks everyone drains into a deadlock.  Either way it is named.
    EXPECT_TRUE(
        response.find("\"error\":\"BudgetExceeded\"") !=
            std::string::npos ||
        response.find("\"error\":\"Deadlock\"") != std::string::npos)
        << response;
    EXPECT_EQ(service.stats().failed, 1u);
}

TEST(ServeChaos, CorruptedTransitionFailsTheCheckThroughTheService)
{
    serve::Service service(chaosServiceConfig());
    const std::string response =
        service.handle(chaosRun("\"fault_plan\":\"corrupt@30; seed=5\""));
    EXPECT_NE(response.find("\"error\":\"CheckFailed\""),
              std::string::npos)
        << response;
}

TEST(ServeChaos, DroppedOverheadBreaksConservationThroughTheService)
{
    serve::Service service(chaosServiceConfig());
    const std::string response =
        service.handle(chaosRun("\"fault_plan\":\"drop@25\""));
    EXPECT_NE(response.find("\"error\":\"CheckFailed\""),
              std::string::npos)
        << response;
    EXPECT_NE(response.find("overhead buckets"), std::string::npos)
        << response;
}

TEST(ServeChaos, StalledQueueTripsTheWatchdogThroughTheService)
{
    serve::Service service(chaosServiceConfig());
    const std::string response =
        service.handle(chaosRun("\"fault_plan\":\"stall@500\""));
    EXPECT_NE(response.find("\"error\":\"Deadlock\""), std::string::npos)
        << response;
    EXPECT_NE(response.find("no sim-time progress"), std::string::npos)
        << response;
}

TEST(ServeChaos, PolicyRetryRecoversATransientFaultThroughTheService)
{
    // The injector latches once per arm: attempt 1 hits the corruption
    // and fails, the seed-perturbed retry runs clean — the client sees
    // a plain success.
    serve::Service service(chaosServiceConfig());
    const std::string response = service.handle(chaosRun(
        "\"fault_plan\":\"corrupt@30; seed=5\",\"retries\":2"));
    EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos)
        << response;
    EXPECT_EQ(service.stats().completed, 1u);
}

TEST(ServeChaos, FailedRunsAreNeverCachedSoARetryCanSucceed)
{
    serve::Service service(chaosServiceConfig());
    const std::string failed =
        service.handle(chaosRun("\"fault_plan\":\"drop@25\""));
    ASSERT_NE(failed.find("\"status\":\"error\""), std::string::npos);
    // The identical run without the fault plan computes fresh.
    const std::string clean = service.handle(chaosRun(""));
    EXPECT_NE(clean.find("\"status\":\"ok\""), std::string::npos)
        << clean;
}

TEST(ServeChaos, TraceRequestEmbedsExcerptInTheErrorResponse)
{
    serve::Service service(chaosServiceConfig());
    const std::string response = service.handle(chaosRun(
        "\"fault_plan\":\"drop@25\",\"trace\":\"all\""));
    EXPECT_NE(response.find("\"status\":\"error\""), std::string::npos)
        << response;
    EXPECT_NE(response.find("\"trace\":\""), std::string::npos)
        << response;
}

TEST(ServeChaos, DeadlineExceededIsNamedNotAHang)
{
    serve::Service service(chaosServiceConfig());
    // A stalled queue dispatches forever without sim-time progress; the
    // microscopic wall deadline cuts it off long before the (huge)
    // stall limit would.
    const std::string response = service.handle(chaosRun(
        "\"fault_plan\":\"stall@500\",\"stall_limit\":4000000000,"
        "\"max_events\":0,\"deadline_s\":0.05"));
    EXPECT_NE(response.find("\"error\":\"DeadlineExceeded\""),
              std::string::npos)
        << response;
}

TEST(ServeChaos, OverloadShedsDeterministicallyWhileAWorkerIsBusy)
{
    // One worker, zero queue slots: while the slow request holds the
    // worker, any new compute must get the shed response immediately.
    serve::Service service(chaosServiceConfig(1, 0));
    const std::string slow = chaosRun(
        "\"fault_plan\":\"stall@500\",\"stall_limit\":4000000000,"
        "\"max_events\":0,\"deadline_s\":2");
    std::string slowResponse;
    // A jthread joins on every exit path, a failed ASSERT's included.
    std::jthread submitter(
        [&] { slowResponse = service.handle(slow); });
    ASSERT_TRUE(awaitInFlight(service));

    const std::string shed = service.handle(chaosRun(""));
    EXPECT_NE(shed.find("\"status\":\"shed\""), std::string::npos)
        << shed;
    EXPECT_NE(shed.find("\"error\":\"admission-reject\""),
              std::string::npos)
        << shed;

    submitter.join();
    EXPECT_NE(slowResponse.find("\"error\":\"DeadlineExceeded\""),
              std::string::npos)
        << slowResponse;
    EXPECT_EQ(service.stats().shed, 1u);
}

TEST(ServeChaos, SweepHitIsServedInlineWhileAdmissionIsFull)
{
    // One worker and one queue slot, both taken by slow requests: a
    // new compute request sheds, a cached sweep is still one lookup on
    // the caller's thread and repeats its bytes.
    serve::Service service(chaosServiceConfig(1, 1));
    const std::string sweep = "{\"op\":\"sweep\",\"app\":\"is\","
                              "\"machine\":\"target\",\"size\":256,"
                              "\"max_procs\":4}";
    const std::string first = service.handle(sweep);
    ASSERT_NE(first.find("\"complete\":true"), std::string::npos) << first;
    // The worker hands the sweep's response over before it leaves the
    // in-flight count; until it has left, that stale count would pass
    // for the slow request below and shed the request meant to queue.
    ASSERT_TRUE(awaitInFlight(service, 0));

    const std::string slow = chaosRun(
        "\"fault_plan\":\"stall@500\",\"stall_limit\":4000000000,"
        "\"max_events\":0,\"deadline_s\":2");
    std::string inFlight;
    std::string queued;
    // jthreads join on every exit path, a failed ASSERT's included.
    std::jthread running([&] { inFlight = service.handle(slow); });
    ASSERT_TRUE(awaitInFlight(service));
    std::jthread waiting([&] { queued = service.handle(slow); });
    for (int i = 0; i < 800 && service.stats().queued != 1; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_EQ(service.stats().queued, 1u);

    const std::string shed = service.handle(chaosRun("\"seed\":2"));
    EXPECT_NE(shed.find("\"status\":\"shed\""), std::string::npos) << shed;
    const std::uint64_t hits = service.stats().cacheHits;
    EXPECT_EQ(service.handle(sweep), first);
    EXPECT_EQ(service.stats().cacheHits, hits + 3);

    running.join();
    waiting.join();
    EXPECT_NE(inFlight.find("\"error\":\"DeadlineExceeded\""),
              std::string::npos)
        << inFlight;
    EXPECT_NE(queued.find("\"error\":\"DeadlineExceeded\""),
              std::string::npos)
        << queued;
    EXPECT_EQ(service.stats().shed, 1u);
}

TEST(ServeChaos, SweepWithAFailedPointIsNeverCached)
{
    // An event budget that P=1 and P=2 fit and P=4 does not: the curve
    // is incomplete, so it is not cached, and the identical request
    // runs on a worker again — its failed point recomputes, its good
    // points are run hits.
    serve::Service service(chaosServiceConfig());
    const std::string sweep = "{\"op\":\"sweep\",\"app\":\"is\","
                              "\"machine\":\"target\",\"size\":256,"
                              "\"max_procs\":4,\"max_events\":3000}";
    const std::string first = service.handle(sweep);
    ASSERT_NE(first.find("\"complete\":false"), std::string::npos) << first;
    ASSERT_NE(first.find("\"points\":[{\"procs\":1,"), std::string::npos)
        << first;
    ASSERT_NE(first.find("\"failures\":[{\"procs\":4,"), std::string::npos)
        << first;
    serve::ServiceStats stats = service.stats();
    EXPECT_EQ(stats.cacheMisses, 3u);
    EXPECT_EQ(stats.cacheEntries, 2u);
    EXPECT_EQ(stats.failed, 1u);

    EXPECT_EQ(service.handle(sweep), first);
    stats = service.stats();
    EXPECT_EQ(stats.cacheMisses, 4u);
    EXPECT_EQ(stats.cacheHits, 2u);
    EXPECT_EQ(stats.cacheEntries, 2u);
    EXPECT_EQ(stats.failed, 2u);
}

TEST(ServeChaos, GracefulDrainFinishesInFlightWorkAndRefusesNew)
{
    serve::Service service(chaosServiceConfig(1, 4));
    const std::string slow = chaosRun(
        "\"fault_plan\":\"stall@500\",\"stall_limit\":4000000000,"
        "\"max_events\":0,\"deadline_s\":2");
    std::string slowResponse;
    std::jthread submitter(
        [&] { slowResponse = service.handle(slow); });
    ASSERT_TRUE(awaitInFlight(service));

    // SIGTERM's path: stop admitting, new compute gets the draining
    // response while the in-flight request keeps executing.
    service.beginDrain();
    const std::string refused = service.handle(chaosRun(""));
    EXPECT_NE(refused.find("\"status\":\"draining\""), std::string::npos)
        << refused;

    // drain() blocks until the slow request completes — the client
    // holding it still gets its real (deadline) response.
    service.drain();
    submitter.join();
    EXPECT_NE(slowResponse.find("\"error\":\"DeadlineExceeded\""),
              std::string::npos)
        << slowResponse;
    EXPECT_EQ(service.stats().inFlight, 0u);
    EXPECT_EQ(service.stats().rejectedDraining, 1u);
}

} // namespace
