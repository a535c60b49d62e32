/**
 * @file
 * Tests for the serve daemon's content-addressed cache key
 * (core/cache_key.hh): the canonical rendering must be stable under
 * request-field reordering and machine-name aliasing, and distinct
 * whenever any result-determining input differs.  Run keys are pinned
 * to literal hashes, so a cache journal written by an earlier build
 * keeps hitting; sweep keys must never collide with them.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/cache_key.hh"
#include "core/figures.hh"
#include "machines/registry.hh"
#include "serve/protocol.hh"

namespace {

using namespace absim;

core::RunConfig
baseConfig()
{
    core::RunConfig config;
    config.app = "is";
    config.params.n = 256;
    config.procs = 8;
    return config;
}

/** Parse a request line with the service's default policy. */
serve::Request
parsed(const std::string &line)
{
    serve::Request request;
    std::string error;
    EXPECT_TRUE(serve::parseRequest(line, core::RunPolicy{}, request, error))
        << line << ": " << error;
    return request;
}

/** The sweep key of a parsed sweep request over @p procs. */
std::string
sweepKeyOf(const std::string &line, const std::vector<std::uint32_t> &procs)
{
    const serve::Request request = parsed(line);
    return core::canonicalSweepKey(request.config, request.policy.budget,
                                   request.metric, procs);
}

TEST(CacheKey, HashMatchesCanonicalString)
{
    const core::RunConfig config = baseConfig();
    const sim::RunBudget budget;
    const std::string canon = core::canonicalRunKey(config, budget);
    EXPECT_EQ(core::runKeyHash(config, budget), core::fnv1a64(canon));
    EXPECT_NE(canon.find("app=is;"), std::string::npos);
    EXPECT_NE(canon.find(";procs=8;"), std::string::npos);
}

TEST(CacheKey, RequestFieldOrderDoesNotSplitTheCache)
{
    // Two spellings of the same request, fields shuffled: the key is
    // rendered from the parsed config in canonical order, so the wire
    // order can never split the cache.
    const std::string a = "{\"op\":\"run\",\"app\":\"is\","
                          "\"machine\":\"logp+c\",\"procs\":8,"
                          "\"size\":256,\"seed\":7}";
    const std::string b = "{\"seed\":7,\"size\":256,\"procs\":8,"
                          "\"machine\":\"logp+c\",\"app\":\"is\","
                          "\"op\":\"run\"}";
    serve::Request ra;
    serve::Request rb;
    std::string error;
    ASSERT_TRUE(serve::parseRequest(a, core::RunPolicy{}, ra, error))
        << error;
    ASSERT_TRUE(serve::parseRequest(b, core::RunPolicy{}, rb, error))
        << error;
    EXPECT_EQ(core::canonicalRunKey(ra.config, ra.policy.budget),
              core::canonicalRunKey(rb.config, rb.policy.budget));
}

TEST(CacheKey, MachineAliasesCollapseToTheCanonicalName)
{
    // The registry accepts both the canonical machine name ("logp+c")
    // and its '+'-stripped figure-column spelling ("logpc"); the key
    // must collapse them so the same run never caches twice.
    core::RunConfig canonical = baseConfig();
    core::RunConfig alias = baseConfig();
    ASSERT_TRUE(mach::parseMachineKind("logp+c", canonical.machine));
    ASSERT_TRUE(mach::parseMachineKind("logpc", alias.machine));
    const sim::RunBudget budget;
    EXPECT_EQ(core::canonicalRunKey(canonical, budget),
              core::canonicalRunKey(alias, budget));
    EXPECT_NE(core::canonicalRunKey(canonical, budget)
                  .find("machine=logp+c;"),
              std::string::npos);
}

TEST(CacheKey, SeedAndSizeChangesProduceDistinctKeys)
{
    const sim::RunBudget budget;
    core::RunConfig config = baseConfig();
    const std::uint64_t base = core::runKeyHash(config, budget);

    config.params.seed += 1;
    const std::uint64_t seeded = core::runKeyHash(config, budget);
    EXPECT_NE(base, seeded);

    config = baseConfig();
    config.params.n *= 2;
    EXPECT_NE(base, core::runKeyHash(config, budget));

    config = baseConfig();
    config.procs = 16;
    EXPECT_NE(base, core::runKeyHash(config, budget));
}

TEST(CacheKey, DeterministicBudgetFieldsAreKeyedWallClockIsNot)
{
    const core::RunConfig config = baseConfig();
    sim::RunBudget budget;
    const std::uint64_t base = core::runKeyHash(config, budget);

    // Event/sim-time/stall budgets change which result a run produces
    // (a tighter budget can fail a run that would have finished), so
    // they key the cache.
    budget.maxEvents = 1000;
    EXPECT_NE(base, core::runKeyHash(config, budget));

    budget = sim::RunBudget{};
    budget.stallDispatchLimit = 5000;
    EXPECT_NE(base, core::runKeyHash(config, budget));

    // The wall-clock deadline is host-dependent: it decides whether a
    // deterministic result is produced in time, never which result.
    // Keying it would split the cache across hosts for nothing.
    budget = sim::RunBudget{};
    budget.maxWallSeconds = 5.0;
    EXPECT_EQ(base, core::runKeyHash(config, budget));
}

TEST(CacheKey, HexKeyFormatsAndParsesRoundTrip)
{
    const std::uint64_t key = 0x0123456789abcdefull;
    const std::string hex = core::formatKeyHex(key);
    EXPECT_EQ(hex, "0123456789abcdef");
    std::uint64_t parsed = 0;
    ASSERT_TRUE(core::parseKeyHex(hex, parsed));
    EXPECT_EQ(parsed, key);
    EXPECT_FALSE(core::parseKeyHex("0123", parsed));
    EXPECT_FALSE(core::parseKeyHex("0123456789abcdeg", parsed));
    EXPECT_FALSE(core::parseKeyHex("0123456789abcdef0", parsed));
}

TEST(CacheKey, RunKeysArePinnedSoOldJournalsStillHit)
{
    // A cache journal stores each entry under its key hash; a run key
    // that drifts by one byte turns every stored entry into a miss.
    // These hashes were written by the run op before sweep keys existed.
    const std::pair<const char *, const char *> pins[] = {
        {"{\"op\":\"run\",\"app\":\"is\",\"machine\":\"logp+c\","
         "\"procs\":4,\"size\":256}",
         "b81127af5d745128"},
        {"{\"op\":\"run\",\"app\":\"fft\",\"machine\":\"target\","
         "\"topology\":\"mesh\",\"procs\":8,\"size\":1024,\"seed\":7,"
         "\"gap\":\"bisection\",\"protocol\":\"msi\",\"cache_kb\":16,"
         "\"check\":false,\"max_events\":100000000}",
         "e805b3660f66bef4"},
        {"{\"op\":\"run\",\"app\":\"ep\",\"machine\":\"logpc\","
         "\"procs\":2,\"size\":128,\"iterations\":2,"
         "\"max_sim_time\":5000000000000,\"stall_limit\":1234,"
         "\"variant\":\"a;b\"}",
         "c6fe2eeec34c5cc1"},
    };
    for (const auto &[line, hex] : pins) {
        const serve::Request request = parsed(line);
        EXPECT_EQ(core::formatKeyHex(core::runKeyHash(
                      request.config, request.policy.budget)),
                  hex)
            << line;
    }
    const serve::Request first = parsed(pins[0].first);
    EXPECT_EQ(core::canonicalRunKey(first.config, first.policy.budget),
              "app=is;n=256;seed=12345;iterations=0;variant=;"
              "machine=logp+c;topology=full;procs=4;gap=single;"
              "cache_bytes=65536;cache_ways=2;protocol=berkeley;check=1;"
              "max_events=0;max_sim_time=0;stall_limit=10000000");
}

TEST(CacheKey, SweepKeyNeverEqualsARunKey)
{
    // A run key starts "app=", a sweep key "op=sweep;", so no sweep —
    // even one whose P list is the run's single procs — can ever
    // answer a run request, or the other way round.
    const sim::RunBudget budget;
    const core::RunConfig config = baseConfig();
    const std::string run = core::canonicalRunKey(config, budget);
    for (const core::Metric metric :
         {core::Metric::ExecTime, core::Metric::Latency,
          core::Metric::Contention}) {
        for (const std::vector<std::uint32_t> &procs :
             {std::vector<std::uint32_t>{8},
              std::vector<std::uint32_t>{1, 2, 4, 8}}) {
            const std::string sweep =
                core::canonicalSweepKey(config, budget, metric, procs);
            EXPECT_EQ(sweep.rfind("op=sweep;metric=", 0), 0u) << sweep;
            EXPECT_NE(sweep, run);
            EXPECT_NE(core::fnv1a64(sweep), core::fnv1a64(run));
        }
    }
    EXPECT_EQ(core::canonicalSweepKey(config, budget, core::Metric::Latency,
                                      {1, 2, 4, 8}),
              "op=sweep;metric=latency;procs=1,2,4,8;app=is;n=256;"
              "seed=12345;iterations=0;variant=;machine=target;"
              "topology=full;gap=single;cache_bytes=65536;cache_ways=2;"
              "protocol=berkeley;check=1;max_events=0;max_sim_time=0;"
              "stall_limit=0");
}

TEST(CacheKey, SweepKeyDoesNotSplitOnOrderAliasesOrRequestProcs)
{
    // Field order, the machine's alias, and the procs a sweep ignores
    // all render to one key: the sweep is keyed by the P list it runs.
    const std::vector<std::uint32_t> procs = {1, 2, 4, 8, 16};
    const std::string base =
        sweepKeyOf("{\"op\":\"sweep\",\"app\":\"fft\","
                   "\"machine\":\"logp+c\",\"metric\":\"latency\","
                   "\"size\":1024,\"max_procs\":16}",
                   procs);
    EXPECT_EQ(sweepKeyOf("{\"max_procs\":16,\"size\":1024,"
                         "\"metric\":\"latency\",\"machine\":\"logpc\","
                         "\"app\":\"fft\",\"op\":\"sweep\"}",
                         procs),
              base);
    EXPECT_EQ(sweepKeyOf("{\"op\":\"sweep\",\"app\":\"fft\","
                         "\"machine\":\"logp+c\",\"metric\":\"latency\","
                         "\"size\":1024,\"max_procs\":16,\"procs\":32}",
                         procs),
              base);
    EXPECT_EQ(base.find(";procs=1,2,4,8,16;"), base.find(";procs="));
    EXPECT_EQ(base.find(";procs=", base.find(";procs=") + 1),
              std::string::npos)
        << "the run's own procs field must not follow: " << base;
}

TEST(CacheKey, SweepKeyKeysTheMetricThePListAndEveryRunField)
{
    const sim::RunBudget budget;
    const core::RunConfig config = baseConfig();
    const std::vector<std::uint32_t> procs = {1, 2, 4};
    const std::string base =
        core::canonicalSweepKey(config, budget, core::Metric::ExecTime, procs);
    EXPECT_NE(core::canonicalSweepKey(config, budget, core::Metric::Latency,
                                      procs),
              base);
    EXPECT_NE(core::canonicalSweepKey(config, budget,
                                      core::Metric::Contention, procs),
              base);
    EXPECT_NE(core::canonicalSweepKey(config, budget, core::Metric::ExecTime,
                                      {1, 2, 4, 8}),
              base);
    // "exec" is the exec_time metric's other spelling: one key.
    EXPECT_EQ(sweepKeyOf("{\"op\":\"sweep\",\"app\":\"is\","
                         "\"size\":256,\"metric\":\"exec\"}",
                         procs),
              sweepKeyOf("{\"op\":\"sweep\",\"app\":\"is\","
                         "\"size\":256,\"metric\":\"exec_time\"}",
                         procs));

    core::RunConfig seeded = config;
    seeded.params.seed += 1;
    EXPECT_NE(core::canonicalSweepKey(seeded, budget, core::Metric::ExecTime,
                                      procs),
              base);
    sim::RunBudget tight;
    tight.maxEvents = 1000;
    EXPECT_NE(core::canonicalSweepKey(config, tight, core::Metric::ExecTime,
                                      procs),
              base);
    sim::RunBudget wall;
    wall.maxWallSeconds = 5.0;
    EXPECT_EQ(core::canonicalSweepKey(config, wall, core::Metric::ExecTime,
                                      procs),
              base);
}

} // namespace
