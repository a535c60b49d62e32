/**
 * @file
 * Tests for the serve subsystem outside the chaos suite: the line-JSON
 * protocol parser, the journal-backed result cache's crash recovery,
 * and the service's steady-state behavior — caching, byte-identical
 * replay, admission bookkeeping, drain semantics and sweeps.
 *
 * Failure-branch coverage that wedges fibers (chaos plans, deadlines)
 * lives in test_serve_chaos.cc, in the leak-check-exempt binary.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "core/cache_key.hh"
#include "core/journal.hh"
#include "json/json.hh"
#include "serve/connection.hh"
#include "serve/protocol.hh"
#include "serve/result_cache.hh"
#include "serve/service.hh"
#include "sim/trace.hh"

namespace {

using namespace absim;

// ---------------------------------------------------------------------
// Protocol parsing.

TEST(ServeProtocol, ParsesFlatJsonFieldsOfEveryType)
{
    json::Value doc;
    ASSERT_TRUE(json::parse(
        "{\"s\":\"a\\\"b\",\"n\":-1.5e3,\"t\":true,\"e\":\"\"}", doc));
    ASSERT_EQ(doc.members.size(), 4u);
    EXPECT_EQ(doc.members[0].key, "s");
    EXPECT_EQ(doc.members[0].value.text, "a\"b");
    EXPECT_TRUE(doc.members[0].value.isString());
    EXPECT_EQ(doc.members[1].value.text, "-1.5e3");
    EXPECT_EQ(doc.members[1].value.type, json::Type::Number);
    EXPECT_EQ(doc.members[2].value.text, "true");
    EXPECT_EQ(doc.members[2].value.type, json::Type::Bool);
    EXPECT_EQ(doc.members[3].value.text, "");
}

TEST(ServeProtocol, RejectsTornNestedAndTrailingGarbage)
{
    json::Value doc;
    EXPECT_FALSE(json::parse("", doc));
    EXPECT_FALSE(json::parse("{\"a\":1", doc));
    EXPECT_FALSE(json::parse("{\"a\":\"tor", doc));
    EXPECT_FALSE(json::parse("{\"a\":1}x", doc));
    EXPECT_TRUE(json::parse("{}", doc));
    EXPECT_TRUE(doc.members.empty());

    // Request fields are scalars: a nested value is a bad request.
    serve::Request request;
    std::string error;
    EXPECT_FALSE(serve::parseRequest("{\"op\":\"ping\",\"a\":{\"b\":1}}",
                                     core::RunPolicy{}, request, error));
    EXPECT_NE(error.find("field 'a' must be a scalar"), std::string::npos)
        << error;
    EXPECT_FALSE(serve::parseRequest("{\"op\":\"ping\",\"a\":[1]}",
                                     core::RunPolicy{}, request, error));
    EXPECT_FALSE(serve::parseRequest("[\"ping\"]", core::RunPolicy{},
                                     request, error));
    EXPECT_TRUE(serve::parseRequest(" {\"op\":\"ping\"} ",
                                    core::RunPolicy{}, request, error));
}

TEST(ServeProtocol, RequestDiagnosticsNameTheOffendingField)
{
    serve::Request request;
    std::string error;
    const core::RunPolicy defaults;

    EXPECT_FALSE(serve::parseRequest("{\"op\":\"fly\"}", defaults,
                                     request, error));
    EXPECT_NE(error.find("unknown op 'fly'"), std::string::npos) << error;

    EXPECT_FALSE(serve::parseRequest(
        "{\"op\":\"run\",\"app\":\"barnes\"}", defaults, request, error));
    EXPECT_NE(error.find("invalid app value 'barnes'"), std::string::npos)
        << error;

    EXPECT_FALSE(serve::parseRequest(
        "{\"op\":\"run\",\"machine\":\"cray\"}", defaults, request,
        error));
    EXPECT_NE(error.find("invalid machine value 'cray'"), std::string::npos)
        << error;

    // The retired message-passing row is an unknown machine like any
    // other name.
    EXPECT_FALSE(serve::parseRequest(
        "{\"op\":\"run\",\"machine\":\"none\"}", defaults, request,
        error));
    EXPECT_NE(error.find("invalid machine value 'none'"), std::string::npos)
        << error;

    EXPECT_FALSE(serve::parseRequest(
        "{\"op\":\"run\",\"topology\":\"torus\"}", defaults, request,
        error));
    EXPECT_NE(error.find("invalid topology value 'torus'"), std::string::npos)
        << error;

    EXPECT_FALSE(serve::parseRequest(
        "{\"op\":\"run\",\"gap\":\"double\"}", defaults, request,
        error));
    EXPECT_NE(error.find("invalid gap value 'double'"), std::string::npos)
        << error;

    EXPECT_FALSE(serve::parseRequest(
        "{\"op\":\"run\",\"procs\":\"many\"}", defaults, request, error));
    EXPECT_NE(error.find("procs"), std::string::npos) << error;

    EXPECT_FALSE(serve::parseRequest(
        "{\"op\":\"run\",\"fault_plan\":\"explode@9\"}", defaults,
        request, error));
    EXPECT_NE(error.find("fault_plan"), std::string::npos) << error;

    EXPECT_FALSE(serve::parseRequest(
        "{\"op\":\"run\",\"trace\":\"everything\"}", defaults, request,
        error));
    EXPECT_NE(error.find("trace"), std::string::npos) << error;

    // The retired retry backoff is an unknown field like any other.
    EXPECT_FALSE(serve::parseRequest(
        "{\"op\":\"run\",\"backoff_ms\":10}", defaults, request, error));
    EXPECT_EQ(error, "unknown field 'backoff_ms'");
}

TEST(ServeProtocol, RequestFieldsOverrideServiceDefaults)
{
    core::RunPolicy defaults;
    defaults.budget.maxWallSeconds = 30.0;
    defaults.maxAttempts = 1;

    serve::Request request;
    std::string error;
    ASSERT_TRUE(serve::parseRequest(
        "{\"op\":\"run\",\"app\":\"ep\",\"deadline_s\":2.5,"
        "\"retries\":3,\"seed\":99,"
        "\"trace\":\"logp,runtime\"}",
        defaults, request, error))
        << error;
    EXPECT_EQ(request.policy.budget.maxWallSeconds, 2.5);
    EXPECT_EQ(request.policy.maxAttempts, 3);
    EXPECT_EQ(request.config.params.seed, 99u);
    EXPECT_EQ(request.policy.traceMask,
              static_cast<std::uint32_t>(sim::TraceCategory::LogP) |
                  static_cast<std::uint32_t>(sim::TraceCategory::Runtime));

    // Untouched fields keep the service defaults.
    ASSERT_TRUE(serve::parseRequest("{\"op\":\"run\",\"app\":\"ep\"}",
                                    defaults, request, error));
    EXPECT_EQ(request.policy.budget.maxWallSeconds, 30.0);
    EXPECT_EQ(request.policy.maxAttempts, 1);
}

TEST(ServeProtocol, ExtractNumberFindsFieldsInPayloads)
{
    const std::string payload =
        "{\"status\":\"ok\",\"exec_time\":1290.43,\"latency\":432.8}";
    double value = 0.0;
    ASSERT_TRUE(serve::extractNumber(payload, "latency", value));
    EXPECT_EQ(value, 432.8);
    EXPECT_FALSE(serve::extractNumber(payload, "contention", value));
}

TEST(ServeProtocol, HostileTraceExcerptStaysValidLineJson)
{
    // A captured sim-trace excerpt is attacker-shaped data as far as
    // the wire format is concerned: trace lines carry quotes around
    // process names, backslashes in paths, embedded newlines between
    // events, and (on a corrupted run) arbitrary control bytes.  Every
    // embedding site must route it through core::jsonEscape; this pins
    // the error-response site with the worst excerpt we can build.
    const std::string hostile =
        "[12] \"worker-3\" send p0 -> p1 via C:\\mesh\\link\n"
        "[15] recv {\"torn\":true}\r\n"
        "\ttail with controls: \x01\x1f and a lone \\";
    const std::string resp =
        serve::errorResponse("run", "Deadlock", hostile, 2, hostile);

    // One line on the wire: no raw newline or control byte survives.
    for (const unsigned char c : resp)
        EXPECT_GE(c, 0x20u) << "raw control byte in response";

    // The line must parse in the daemon's own dialect and round-trip
    // the excerpt byte-exactly through the unescaper.
    json::Value doc;
    ASSERT_TRUE(json::parse(resp, doc));
    std::string message;
    std::string trace;
    ASSERT_TRUE(json::getString(doc, "message", message));
    ASSERT_TRUE(json::getString(doc, "trace", trace));
    EXPECT_EQ(message, hostile);
    EXPECT_EQ(trace, hostile);

    // Same property for the journal failure record that persists the
    // excerpt (the other embedding site the wire shares its dialect
    // with).
    core::JournalRecord failure;
    failure.procs = 8;
    failure.failed = true;
    failure.machine = "target";
    failure.error = "Deadlock";
    failure.message = hostile;
    failure.trace = hostile;
    const std::string line = core::encodeRecord(failure);
    EXPECT_EQ(line.find('\n'), std::string::npos);
    core::JournalRecord out;
    ASSERT_TRUE(core::decodeRecord(line, out));
    EXPECT_EQ(out.message, hostile);
    EXPECT_EQ(out.trace, hostile);
}

// ---------------------------------------------------------------------
// Result cache durability.

TEST(ServeCache, PersistsEntriesAcrossReopen)
{
    const std::string path = testing::TempDir() + "absim_cache.jsonl";
    std::remove(path.c_str());
    {
        serve::ResultCache cache;
        ASSERT_TRUE(cache.open(path));
        cache.insert(core::fnv1a64("canon-a"), "canon-a", "payload-a");
        cache.insert(core::fnv1a64("canon-b"), "canon-b", "payload-b");
        cache.close();
    }
    serve::ResultCache cache;
    ASSERT_TRUE(cache.open(path));
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.recoveredEntries(), 2u);
    EXPECT_FALSE(cache.recoveredTornTail());
    std::string payload;
    ASSERT_TRUE(cache.lookup(core::fnv1a64("canon-a"), payload));
    EXPECT_EQ(payload, "payload-a");
}

TEST(ServeCache, TornTailIsDroppedAndTruncatedOnReopen)
{
    const std::string path = testing::TempDir() + "absim_cache_torn.jsonl";
    std::remove(path.c_str());
    {
        serve::ResultCache cache;
        ASSERT_TRUE(cache.open(path));
        cache.insert(core::fnv1a64("intact"), "intact", "survives");
        cache.close();
    }
    {
        // kill -9 mid-append: an unterminated trailing record.
        std::ofstream out(path, std::ios::app | std::ios::binary);
        out << "{\"key\":\"0000000000000001\",\"canon\":\"half";
    }
    {
        serve::ResultCache cache;
        ASSERT_TRUE(cache.open(path));
        EXPECT_TRUE(cache.recoveredTornTail());
        EXPECT_EQ(cache.size(), 1u);
        std::string payload;
        ASSERT_TRUE(cache.lookup(core::fnv1a64("intact"), payload));
        EXPECT_EQ(payload, "survives");
        // Appending after recovery welds onto the clean prefix.
        cache.insert(core::fnv1a64("after"), "after", "appended");
        cache.close();
    }
    serve::ResultCache cache;
    ASSERT_TRUE(cache.open(path));
    EXPECT_FALSE(cache.recoveredTornTail());
    EXPECT_EQ(cache.size(), 2u);
}

TEST(ServeCache, RecordWhoseCanonMismatchesItsKeyIsATear)
{
    const std::string path = testing::TempDir() + "absim_cache_bad.jsonl";
    std::remove(path.c_str());
    {
        serve::ResultCache cache;
        ASSERT_TRUE(cache.open(path));
        cache.insert(core::fnv1a64("good"), "good", "kept");
        cache.close();
    }
    {
        // Corruption that still parses as JSON: key and canon disagree.
        std::ofstream out(path, std::ios::app | std::ios::binary);
        out << "{\"key\":\"00000000deadbeef\",\"canon\":\"drifted\","
               "\"payload\":\"poison\"}\n";
    }
    serve::ResultCache cache;
    ASSERT_TRUE(cache.open(path));
    EXPECT_TRUE(cache.recoveredTornTail());
    EXPECT_EQ(cache.size(), 1u);
    std::string payload;
    EXPECT_FALSE(cache.lookup(0x00000000deadbeefull, payload));
}

TEST(ServeCache, OverLongLineIsATornTailNotAnAllocation)
{
    const std::string path = testing::TempDir() + "absim_cache_long.jsonl";
    std::remove(path.c_str());
    {
        serve::ResultCache cache;
        ASSERT_TRUE(cache.open(path));
        cache.insert(core::fnv1a64("kept"), "kept", "before");
        cache.close();
    }
    {
        // A newline-free line one byte over the cap.
        std::ofstream out(path, std::ios::app | std::ios::binary);
        out << std::string(core::kMaxJournalLineBytes + 1, 'x');
    }
    {
        serve::ResultCache cache;
        ASSERT_TRUE(cache.open(path));
        EXPECT_TRUE(cache.recoveredTornTail());
        EXPECT_EQ(cache.size(), 1u);
        cache.insert(core::fnv1a64("after"), "after", "appended");
        cache.close();
    }
    serve::ResultCache cache;
    ASSERT_TRUE(cache.open(path));
    EXPECT_FALSE(cache.recoveredTornTail());
    EXPECT_EQ(cache.size(), 2u);
}

TEST(ServeCache, FirstWriteWinsOnDuplicateKeys)
{
    serve::ResultCache cache;
    (void)cache.open(""); // Memory-only.
    cache.insert(42, "canon", "first");
    cache.insert(42, "canon", "second");
    std::string payload;
    ASSERT_TRUE(cache.lookup(42, payload));
    EXPECT_EQ(payload, "first");
}

// ---------------------------------------------------------------------
// Service behavior (steady state).

serve::ServiceConfig
smallConfig()
{
    serve::ServiceConfig config;
    config.workers = 2;
    config.maxQueue = 4;
    return config;
}

TEST(ServeService, RepeatedRunIsAByteIdenticalCacheHit)
{
    serve::Service service(smallConfig());
    const std::string request = "{\"op\":\"run\",\"app\":\"is\","
                                "\"machine\":\"logpc\",\"procs\":4,"
                                "\"size\":256}";
    const std::string first = service.handle(request);
    ASSERT_NE(first.find("\"status\":\"ok\""), std::string::npos)
        << first;
    // Same run, aliased machine spelling and shuffled fields: exact
    // bytes back, no second simulation.
    const std::string second = service.handle(
        "{\"size\":256,\"procs\":4,\"machine\":\"logp+c\","
        "\"app\":\"is\",\"op\":\"run\"}");
    EXPECT_EQ(first, second);
    const serve::ServiceStats stats = service.stats();
    EXPECT_EQ(stats.cacheMisses, 1u);
    EXPECT_EQ(stats.cacheHits, 1u);
}

TEST(ServeService, CacheSurvivesRestartByteIdentical)
{
    const std::string path =
        testing::TempDir() + "absim_service_cache.jsonl";
    std::remove(path.c_str());
    const std::string request = "{\"op\":\"run\",\"app\":\"ep\","
                                "\"machine\":\"logpc\",\"procs\":2,"
                                "\"size\":128}";
    std::string first;
    {
        serve::ServiceConfig config = smallConfig();
        config.cachePath = path;
        serve::Service service(config);
        first = service.handle(request);
        ASSERT_NE(first.find("\"status\":\"ok\""), std::string::npos)
            << first;
        service.drain();
    }
    serve::ServiceConfig config = smallConfig();
    config.cachePath = path;
    serve::Service service(config);
    EXPECT_EQ(service.handle(request), first);
    EXPECT_EQ(service.stats().cacheHits, 1u);
    EXPECT_EQ(service.stats().cacheMisses, 0u);
}

TEST(ServeService, BadRequestsAreNamedNotFatal)
{
    serve::Service service(smallConfig());
    const std::string response = service.handle("{\"op\":\"run\"");
    EXPECT_NE(response.find("\"status\":\"error\""), std::string::npos);
    EXPECT_NE(response.find("\"error\":\"bad-request\""),
              std::string::npos);
    EXPECT_EQ(service.stats().badRequests, 1u);
    // The service still works afterwards.
    EXPECT_NE(service.handle("{\"op\":\"ping\"}").find("\"op\":\"ping\""),
              std::string::npos);
}

TEST(ServeService, HostileEscapesAreBadRequestsNotFatal)
{
    // A \u escape without four hex digits used to throw out of
    // Service::handle (std::stoul) and abort the daemon; a code point
    // above 0xff used to be cut to its low byte, so \u0170ing read as
    // "ping".  An oversized fault-plan count used to throw
    // std::out_of_range past the invalid_argument handler.
    serve::Service service(smallConfig());
    for (const std::string line :
         {"{\"op\":\"\\uzzzz\"}", "{\"op\":\"\\u0170ing\"}",
          "{\"op\":\"\\u00\"}", "{\"op\":\"\\ud800\"}",
          "{\"op\":\"ping\",\"op\":\"stats\"}",
          "{\"op\":\"run\",\"app\":\"ep\",\"fault_plan\":"
          "\"seed=99999999999999999999999\"}"}) {
        const std::string response = service.handle(line);
        EXPECT_NE(response.find("\"error\":\"bad-request\""),
                  std::string::npos)
            << line << " -> " << response;
    }
    EXPECT_EQ(service.stats().badRequests, 6u);
    EXPECT_NE(service.handle("{\"op\":\"ping\"}").find("\"op\":\"ping\""),
              std::string::npos);
    // The escape itself decodes to UTF-8, not to a truncated byte.
    EXPECT_NE(service.handle("{\"op\":\"\\u0170ing\"}")
                  .find("unknown op '\xc5\xb0ing'"),
              std::string::npos);
}

/** A small IS sweep over P = 1, 2, 4 on LogP+C. */
const std::string kSweep = "{\"op\":\"sweep\",\"app\":\"is\","
                           "\"machine\":\"logpc\",\"size\":256,"
                           "\"max_procs\":4}";

/** kSweep spelled another way: shuffled fields, the canonical machine
 *  name, an ignored procs and a max_procs that runs the same P list. */
const std::string kSweepRespelled =
    "{\"max_procs\":7,\"procs\":2,\"size\":256,"
    "\"machine\":\"logp+c\",\"app\":\"is\",\"op\":\"sweep\"}";

TEST(ServeService, DrainRefusesNewComputeButServesHits)
{
    serve::Service service(smallConfig());
    const std::string request = "{\"op\":\"run\",\"app\":\"is\","
                                "\"machine\":\"logpc\",\"procs\":4,"
                                "\"size\":256}";
    const std::string cached = service.handle(request);
    const std::string sweep = service.handle(kSweep);
    ASSERT_NE(sweep.find("\"complete\":true"), std::string::npos) << sweep;
    const std::string drained = service.handle("{\"op\":\"drain\"}");
    EXPECT_NE(drained.find("\"draining\":true"), std::string::npos);
    EXPECT_TRUE(service.draining());

    // New compute: the draining response, immediately.
    const std::string refused = service.handle(
        "{\"op\":\"run\",\"app\":\"is\",\"machine\":\"logpc\","
        "\"procs\":8,\"size\":256}");
    EXPECT_NE(refused.find("\"status\":\"draining\""), std::string::npos);

    // A hit of either op is a lookup, not work: still served,
    // byte-identical.
    EXPECT_EQ(service.handle(request), cached);
    EXPECT_EQ(service.handle(kSweepRespelled), sweep);
    EXPECT_EQ(service.stats().rejectedDraining, 1u);
}

TEST(ServeService, ShutdownOpFlagsTheDaemonLoop)
{
    serve::Service service(smallConfig());
    EXPECT_FALSE(service.shutdownRequested());
    const std::string response = service.handle("{\"op\":\"shutdown\"}");
    EXPECT_NE(response.find("\"op\":\"shutdown\""), std::string::npos);
    EXPECT_TRUE(service.shutdownRequested());
    EXPECT_TRUE(service.draining());
}

TEST(ServeService, SweepReusesTheRunCacheAndReportsPoints)
{
    serve::Service service(smallConfig());
    // Warm one point via the run op ...
    const std::string run = service.handle(
        "{\"op\":\"run\",\"app\":\"is\",\"machine\":\"logpc\","
        "\"procs\":4,\"size\":256}");
    ASSERT_NE(run.find("\"status\":\"ok\""), std::string::npos) << run;
    // ... then sweep across it: the warmed point must be a hit.
    const std::string sweep = service.handle(
        "{\"op\":\"sweep\",\"app\":\"is\",\"machine\":\"logpc\","
        "\"size\":256,\"max_procs\":8}");
    EXPECT_NE(sweep.find("\"op\":\"sweep\""), std::string::npos);
    EXPECT_NE(sweep.find("\"complete\":true"), std::string::npos);
    EXPECT_NE(sweep.find("\"procs\":8"), std::string::npos);
    EXPECT_NE(sweep.find("\"failures\":[]"), std::string::npos);
    EXPECT_GE(service.stats().cacheHits, 1u);

    // A second sweep is pure cache replay: byte-identical.
    EXPECT_EQ(service.handle(
                  "{\"op\":\"sweep\",\"app\":\"is\","
                  "\"machine\":\"logpc\",\"size\":256,\"max_procs\":8}"),
              sweep);
}

TEST(ServeService, SweepHitAddsOneCacheHitPerPoint)
{
    serve::Service service(smallConfig());
    const std::string first = service.handle(kSweep);
    ASSERT_NE(first.find("\"complete\":true"), std::string::npos) << first;
    serve::ServiceStats stats = service.stats();
    EXPECT_EQ(stats.cacheMisses, 3u);
    EXPECT_EQ(stats.cacheHits, 0u);
    // Three run entries and the whole curve.
    EXPECT_EQ(stats.cacheEntries, 4u);

    // The whole curve is one lookup, counted as its three points.
    EXPECT_EQ(service.handle(kSweepRespelled), first);
    stats = service.stats();
    EXPECT_EQ(stats.cacheMisses, 3u);
    EXPECT_EQ(stats.cacheHits, 3u);
    EXPECT_EQ(stats.cacheEntries, 4u);

    // Another metric is another curve: computed from the run entries,
    // one hit per point, and then an entry of its own.
    const std::string latency = service.handle(
        "{\"op\":\"sweep\",\"app\":\"is\",\"machine\":\"logpc\","
        "\"size\":256,\"max_procs\":4,\"metric\":\"latency\"}");
    EXPECT_NE(latency.find("\"metric\":\"latency\""), std::string::npos)
        << latency;
    stats = service.stats();
    EXPECT_EQ(stats.cacheMisses, 3u);
    EXPECT_EQ(stats.cacheHits, 6u);
    EXPECT_EQ(stats.cacheEntries, 5u);
}

TEST(ServeService, SweepEntrySurvivesRestartByteIdentical)
{
    const std::string path =
        testing::TempDir() + "absim_service_sweep_cache.jsonl";
    std::remove(path.c_str());
    std::string first;
    {
        serve::ServiceConfig config = smallConfig();
        config.cachePath = path;
        serve::Service service(config);
        first = service.handle(kSweep);
        ASSERT_NE(first.find("\"complete\":true"), std::string::npos)
            << first;
        service.drain();
    }
    // The curve is a journal entry of its own, keyed by its canon.
    std::ifstream in(path);
    std::string line;
    int sweepEntries = 0;
    while (std::getline(in, line))
        if (line.find("\"canon\":\"op=sweep;metric=exec_time;"
                      "procs=1,2,4;app=is;") != std::string::npos)
            ++sweepEntries;
    EXPECT_EQ(sweepEntries, 1);

    serve::ServiceConfig config = smallConfig();
    config.cachePath = path;
    serve::Service service(config);
    EXPECT_EQ(service.handle(kSweepRespelled), first);
    EXPECT_EQ(service.stats().cacheHits, 3u);
    EXPECT_EQ(service.stats().cacheMisses, 0u);
    EXPECT_EQ(service.stats().cacheEntries, 4u);
}

TEST(ServeService, StatsResponseCountsEveryOutcomeClass)
{
    serve::Service service(smallConfig());
    (void)service.handle("{\"op\":\"ping\"}");
    (void)service.handle("not json");
    const std::string stats = service.handle("{\"op\":\"stats\"}");
    EXPECT_NE(stats.find("\"received\":3"), std::string::npos) << stats;
    EXPECT_NE(stats.find("\"bad_requests\":1"), std::string::npos);
    EXPECT_NE(stats.find("\"draining\":false"), std::string::npos);
    EXPECT_NE(stats.find("\"torn_tail_recovered\":false"),
              std::string::npos);
}

// ------------------------------------------------------- The socket

TEST(ServeConnection, LineReaderCapsALineAtItsLimit)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    // A line of exactly kMaxLineBytes, then one byte over it.  The
    // writer runs beside the reader, as the lines outgrow the socket
    // buffer; it stops when the reader hangs up.
    const std::string at_cap(serve::kMaxLineBytes, 'a');
    const std::string over_cap(serve::kMaxLineBytes + 1, 'b');
    std::thread writer([&at_cap, &over_cap, fd = fds[1]] {
        const std::string input = at_cap + "\n" + over_cap + "\n";
        std::size_t sent = 0;
        while (sent < input.size()) {
            const ssize_t n = ::send(fd, input.data() + sent,
                                     input.size() - sent, MSG_NOSIGNAL);
            if (n <= 0)
                break;
            sent += static_cast<std::size_t>(n);
        }
    });
    serve::LineReader reader(fds[0]);
    std::string line;
    EXPECT_EQ(reader.next(line), serve::LineReader::Status::Line);
    EXPECT_EQ(line, at_cap);
    EXPECT_EQ(reader.next(line), serve::LineReader::Status::TooLong);
    ::close(fds[0]);
    writer.join();
    ::close(fds[1]);
}

TEST(ServeConnection, LineReaderReturnsAnUnterminatedFinalLine)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const std::string input = "first\nlast";
    ASSERT_EQ(::write(fds[1], input.data(), input.size()),
              static_cast<ssize_t>(input.size()));
    ::close(fds[1]);
    serve::LineReader reader(fds[0]);
    std::string line;
    EXPECT_EQ(reader.next(line), serve::LineReader::Status::Line);
    EXPECT_EQ(line, "first");
    EXPECT_EQ(reader.next(line), serve::LineReader::Status::Unterminated);
    EXPECT_EQ(line, "last");
    EXPECT_EQ(reader.next(line), serve::LineReader::Status::Closed);
    ::close(fds[0]);
}

TEST(ServeConnection, NewlineFreeFloodIsABadRequestAndHangsUp)
{
    serve::Service service(smallConfig());
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    std::thread daemon([&service, fd = fds[0]] {
        serve::serveConnection(service, fd, fd);
        ::close(fd);
    });

    // 2 MiB, never a newline.  The daemon stops reading past 1 MiB and
    // hangs up, so the rest of the flood fails to send.
    const std::string chunk(64 * 1024, 'x');
    std::size_t sent = 0;
    while (sent < 2 * serve::kMaxLineBytes) {
        const ssize_t n =
            ::send(fds[1], chunk.data(), chunk.size(), MSG_NOSIGNAL);
        if (n <= 0)
            break;
        sent += static_cast<std::size_t>(n);
    }
    std::string reply;
    char buf[4096];
    for (ssize_t n; (n = ::read(fds[1], buf, sizeof(buf))) > 0;)
        reply.append(buf, static_cast<std::size_t>(n));
    daemon.join();
    ::close(fds[1]);

    EXPECT_LT(sent, 2 * serve::kMaxLineBytes);
    EXPECT_EQ(std::count(reply.begin(), reply.end(), '\n'), 1) << reply;
    EXPECT_NE(reply.find("\"error\":\"bad-request\""), std::string::npos)
        << reply;
    EXPECT_NE(reply.find("request line exceeds 1048576 bytes"),
              std::string::npos)
        << reply;
    EXPECT_EQ(service.stats().badRequests, 1u);
    EXPECT_EQ(service.stats().received, 1u);
}

} // namespace
