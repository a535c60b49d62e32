/**
 * @file
 * The run-settings table (core/run_settings.hh) is the one parser of a
 * run setting: every row takes the same texts to the same values when
 * applied directly (the argv path of run_cli and absim_serve) and as a
 * serve request field, and every rejection names its key.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "core/cache_key.hh"
#include "core/env.hh"
#include "core/run_settings.hh"
#include "json/json.hh"
#include "serve/protocol.hh"

namespace {

using namespace absim;

/** Per row: a valid text and one just past its range. */
struct Sample
{
    std::string_view key;
    std::string valid;
    std::string overRange;
};

const std::vector<Sample> &
samples()
{
    static const std::vector<Sample> kSamples = {
        {"app", "cholesky", "fftw"},
        {"size", "4096", "67108865"},
        {"seed", "99", "18446744073709551616"},
        {"iterations", "5", "1048577"},
        {"variant", "hotspot", "hotspot"}, // Any text is a variant.
        {"machine", "logpc", "logp+cc"},
        {"topology", "mesh", "meshy"},
        {"procs", "16", "128"},
        {"gap", "per-direction", "per-directions"},
        {"protocol", "msi", "msix"},
        {"cache_kb", "256", "2097152"},
        {"check", "false", "falsey"},
        {"deadline_s", "2.5", "-0.5"},
        {"max_events", "300", "18446744073709551616"},
        {"max_sim_time", "1000000", "18446744073709551616"},
        {"stall_limit", "20000", "18446744073709551616"},
        {"retries", "3", "101"},
        {"trace", "logp,runtime", "logp,"},
    };
    return kSamples;
}

/** Texts every row meets: signs, exponents, hex, 2^32 and 2^64,
 *  non-numbers, values that are not a power of two, padding, and
 *  10 KB strings. */
std::vector<std::string>
hostileTexts()
{
    return {"",
            "-1",
            "+1",
            "1e3",
            "0x10",
            "4294967296",
            "18446744073709551616",
            "nan",
            "inf",
            "3",
            "48",
            "0",
            " 1",
            "1 ",
            "01",
            "1.5",
            "0x1p3",
            "true",
            "null",
            "\"5\"",
            "a\"b\\c",
            std::string(10 * 1024, '7'),
            std::string(10 * 1024, 'a')};
}

/** Byte flips, inserts, deletions, duplications and truncations of
 *  @p text, from an alphabet biased towards number syntax. */
std::vector<std::string>
mutants(const std::string &text, std::mt19937_64 &rng, int count)
{
    static const std::string kAlphabet = "0123456789-+.eE x,\"\\\x01\xff";
    std::vector<std::string> out;
    for (int i = 0; i < count; ++i) {
        std::string m = text;
        const int edits = 1 + static_cast<int>(rng() % 3);
        for (int e = 0; e < edits; ++e) {
            const std::size_t at = m.empty() ? 0 : rng() % (m.size() + 1);
            const char c = kAlphabet[rng() % kAlphabet.size()];
            switch (rng() % 5) {
              case 0:
                if (at < m.size())
                    m[at] = c;
                break;
              case 1:
                m.insert(m.begin() + static_cast<std::ptrdiff_t>(at), c);
                break;
              case 2:
                if (at < m.size())
                    m.erase(at, 1);
                break;
              case 3:
                m += m;
                break;
              default:
                m.resize(at);
                break;
            }
        }
        out.push_back(std::move(m));
    }
    return out;
}

/** Every settable value of a (RunConfig, RunPolicy), exactly. */
std::string
settingsOf(const core::RunConfig &config, const core::RunPolicy &policy)
{
    return core::canonicalRunKey(config, policy.budget) +
           ";machine_kind=" +
           std::to_string(static_cast<int>(config.machine)) +
           ";variant_bytes=" + config.params.variant +
           ";wall=" + json::formatDouble(policy.budget.maxWallSeconds) +
           ";attempts=" + std::to_string(policy.maxAttempts) +
           ";trace=" + std::to_string(policy.traceMask);
}

/** The request field for @p text: a bare JSON number or bool when the
 *  row takes one and the text is exactly such a token, else the text
 *  as a JSON string (which a non-String row must reject by type). */
std::string
requestLine(const core::RunSetting &row, const std::string &text)
{
    std::string field = "\"" + json::jsonEscape(text) + "\"";
    json::Value v;
    if (row.type != json::Type::String && json::parse(text, v) &&
        (v.type == json::Type::Number || v.type == json::Type::Bool) &&
        v.text == text)
        field = text;
    return "{\"op\":\"run\",\"" + std::string(row.key) + "\":" + field +
           "}";
}

TEST(RunSettings, TableAndServeRequestAgreeOnEveryText)
{
    std::set<std::string_view> sampled;
    for (const Sample &s : samples())
        sampled.insert(s.key);
    std::set<std::string_view> rows;
    for (const core::RunSetting &row : core::runSettings())
        rows.insert(row.key);
    ASSERT_EQ(rows, sampled) << "every row needs a sample";

    const std::string defaults =
        settingsOf(core::RunConfig{}, core::RunPolicy{});
    std::mt19937_64 rng(0x72756e5f73657473ull);
    int accepted = 0;
    int rejected = 0;
    for (const Sample &s : samples()) {
        const core::RunSetting *row = core::findRunSetting(s.key);
        ASSERT_NE(row, nullptr) << s.key;
        std::vector<std::string> texts = hostileTexts();
        texts.push_back(s.valid);
        texts.push_back(s.overRange);
        for (std::string &m : mutants(s.valid, rng, 200))
            texts.push_back(std::move(m));

        for (const std::string &text : texts) {
            core::RunConfig config;
            core::RunPolicy policy;
            const bool directOk = row->apply(text, config, policy);

            serve::Request request;
            std::string served;
            const std::string line = requestLine(*row, text);
            const bool servedOk = serve::parseRequest(
                line, core::RunPolicy{}, request, served);

            ASSERT_EQ(directOk, servedOk) << line << "\n served: " << served;
            if (directOk) {
                ++accepted;
                EXPECT_EQ(settingsOf(config, policy),
                          settingsOf(request.config, request.policy))
                    << line;
            } else {
                ++rejected;
                EXPECT_EQ(settingsOf(config, policy), defaults)
                    << "a rejected text wrote a value: " << line;
                EXPECT_EQ(served,
                          core::invalidValue(row->key, text, row->valid));
                EXPECT_EQ(served.rfind("invalid " + std::string(row->key) +
                                           " value '",
                                       0),
                          0u)
                    << served;
            }
        }
        core::RunConfig config;
        core::RunPolicy policy;
        EXPECT_TRUE(row->apply(s.valid, config, policy)) << s.valid;
    }
    // Both outcomes are well represented, so agreement means something.
    EXPECT_GT(accepted, 1000);
    EXPECT_GT(rejected, 2500);
}

TEST(RunSettings, RangesAndSpellings)
{
    struct Case
    {
        std::string_view key;
        std::string_view text;
        bool ok;
    };
    const Case cases[] = {
        {"procs", "1", true},          {"procs", "64", true},
        {"procs", "3", false},         {"procs", "100", false},
        {"procs", "128", false},       {"procs", "0", false},
        {"cache_kb", "1", true},       {"cache_kb", "1048576", true},
        {"cache_kb", "0", false},      {"cache_kb", "4194304", false},
        {"cache_kb", "96", false},     {"size", "0", false},
        {"size", "67108864", true},    {"iterations", "0", true},
        {"retries", "0", false},       {"retries", "100", true},
        {"deadline_s", "0", true},     {"deadline_s", "1e3", true},
        {"deadline_s", "-1", false},   {"deadline_s", "1e999", false},
        {"max_events", "18446744073709551615", true},
        {"topology", "cube", true},    {"gap", "bisection", true},
        {"protocol", "berkeley", true}, {"machine", "logp+c", true},
        {"app", "synthetic", true},    {"check", "true", true},
        {"check", "1", false},         {"trace", "all", true},
    };
    for (const Case &c : cases) {
        const core::RunSetting *row = core::findRunSetting(c.key);
        ASSERT_NE(row, nullptr) << c.key;
        core::RunConfig config;
        core::RunPolicy policy;
        EXPECT_EQ(row->apply(c.text, config, policy), c.ok)
            << c.key << "=" << c.text;
    }

    // Flags follow the keys, with no aliases.
    EXPECT_EQ(core::flagName("cache_kb"), "--cache-kb");
    EXPECT_EQ(core::findRunSettingFlag("--deadline-s"),
              core::findRunSetting("deadline_s"));
    for (const char *gone : {"--topo", "--iters", "--policy",
                             "--wall-seconds", "--no-check", "--cache_kb",
                             "--backoff-ms", "cache-kb"})
        EXPECT_EQ(core::findRunSettingFlag(gone), nullptr) << gone;

    // The policy rows are exactly the RunPolicy's settable values.
    std::set<std::string_view> policyRows;
    for (const core::RunSetting &row : core::runSettings())
        if (row.policy)
            policyRows.insert(row.key);
    EXPECT_EQ(policyRows,
              (std::set<std::string_view>{"deadline_s", "max_events",
                                          "max_sim_time", "stall_limit",
                                          "retries", "trace"}));

    core::Metric metric = core::Metric::Latency;
    std::string error;
    EXPECT_TRUE(core::parseMetric("exec", "metric", metric, error));
    EXPECT_EQ(metric, core::Metric::ExecTime);
    metric = core::Metric::Latency;
    EXPECT_TRUE(core::parseMetric("exec_time", "metric", metric, error));
    EXPECT_EQ(metric, core::Metric::ExecTime);
    EXPECT_FALSE(core::parseMetric("speed", "--sweep", metric, error));
    EXPECT_EQ(error.rfind("invalid --sweep value 'speed'", 0), 0u) << error;
}

TEST(NumberText, ArgvEnvAndJsonAcceptTheSameTexts)
{
    std::uint64_t u = 0;
    double d = 0.0;
    // strtod took all of these; a JSON request field takes none.
    for (const char *text : {" 1", "1 ", "+1", "0x1p3", "0x10", "01", ".5",
                             "1.", "inf", "nan", "", "1e999"}) {
        EXPECT_FALSE(core::parseUint(text, u)) << "'" << text << "'";
        EXPECT_FALSE(core::parseDouble(text, d)) << "'" << text << "'";
    }
    EXPECT_TRUE(core::parseUint("18446744073709551615", u));
    EXPECT_EQ(u, UINT64_MAX);
    EXPECT_FALSE(core::parseUint("18446744073709551616", u));
    for (const char *text : {"1e3", "1.0", "-0", "-1"})
        EXPECT_FALSE(core::parseUint(text, u)) << text;
    ASSERT_TRUE(core::parseDouble("1e3", d));
    EXPECT_EQ(d, 1000.0);
    ASSERT_TRUE(core::parseDouble("-2.5", d));
    EXPECT_EQ(d, -2.5);
}

} // namespace
