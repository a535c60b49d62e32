/**
 * @file
 * The run-settings table (core/run_settings.hh) is the one parser of a
 * run or sweep setting: every row takes the same texts to the same
 * values as a flag, as an ABSIM_* variable and as a serve request
 * field, and every rejection names the setting as its surface spells
 * it.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
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
        {"figure", "is_full_exec", "21"},
        {"ablation", "protocol", "ablation_protocol"},
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
        {"cache_kb", "256", "2048"},
        {"check", "false", "falsey"},
        {"deadline_s", "2.5", "-0.5"},
        {"max_events", "300", "18446744073709551616"},
        {"max_sim_time", "1000000", "18446744073709551616"},
        {"stall_limit", "20000", "18446744073709551616"},
        {"retries", "3", "101"},
        {"trace", "logp,runtime", "logp,"},
        {"fault_plan", "wedge@120:node=2; seed=7", "wedge@120:node=x"},
        {"metric", "latency", "latencies"},
        {"max_procs", "16", "1048577"},
        {"jobs", "4", "257"},
        {"shard", "1/4", "4/4"},
        {"mode", "replay", "replays"},
        {"trace_dir", "traces-x", ""},
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

/** Every settable value of a Settings, exactly. */
std::string
settingsOf(const core::Settings &s)
{
    const core::RunConfig &config = s.config;
    const core::RunPolicy &policy = s.policy;
    return core::canonicalRunKey(config, policy.budget) +
           ";machine_kind=" +
           std::to_string(static_cast<int>(config.machine)) +
           ";variant_bytes=" + config.params.variant +
           ";wall=" + json::formatDouble(policy.budget.maxWallSeconds) +
           ";attempts=" + std::to_string(policy.maxAttempts) +
           ";trace=" + std::to_string(policy.traceMask) +
           ";metric=" + core::toString(s.metric) +
           ";max_procs=" + std::to_string(s.maxProcs) +
           ";jobs=" + std::to_string(s.jobs) + ";shard=" + s.shard.str() +
           ";figure=" +
           (s.figure ? std::to_string(s.figure->number) : "none") +
           ";ablation=" +
           (s.ablation ? std::string(s.ablation->name) : "none") +
           ";fault_plan=" + s.faultPlan.toString() +
           ";mode=" + std::to_string(static_cast<int>(config.mode)) +
           ";trace_dir=" + config.traceDir;
}

/** Unset every row's variable, so only what a test sets is read. */
void
clearSettingsEnv()
{
    for (const core::RunSetting &row : core::runSettings())
        ::unsetenv(core::envName(row.key).c_str());
}

/** @p text as the value of @p row's flag, through applySettings. */
bool
viaArgv(const core::RunSetting &row, const std::string &text,
        core::Settings &out, std::string &error)
{
    const std::string flag = core::flagName(row.key);
    const char *argv[] = {"prog", flag.c_str(), text.c_str()};
    return core::applySettings(row.takers, 3, argv, out, error);
}

/** @p text as @p row's ABSIM_* variable, through applySettings.  An
 *  empty variable is an unset one, so @p text must not be empty. */
bool
viaEnv(const core::RunSetting &row, const std::string &text,
       core::Settings &out, std::string &error)
{
    const std::string name = core::envName(row.key);
    ::setenv(name.c_str(), text.c_str(), 1);
    const char *argv[] = {"prog"};
    const bool ok = core::applySettings(row.takers, 1, argv, out, error);
    ::unsetenv(name.c_str());
    return ok;
}

/** The request field for @p text: a bare JSON number or bool when the
 *  row takes one and the text is exactly such a token, else the text
 *  as a JSON string (which a non-String row must reject by type). */
std::string
requestLine(const core::RunSetting &row, const std::string &text)
{
    std::string line = "{\"op\":\"run\",\"";
    line.append(row.key).append("\":");
    json::Value v;
    if (row.type != json::Type::String && json::parse(text, v) &&
        (v.type == json::Type::Number || v.type == json::Type::Bool) &&
        v.text == text)
        line.append(text);
    else
        line.append("\"").append(json::jsonEscape(text)).append("\"");
    return line.append("}");
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

    clearSettingsEnv();
    const core::Settings unset;
    const std::string defaults = settingsOf(unset);
    std::mt19937_64 rng(0x72756e5f73657473ull);
    int accepted = 0;
    int rejected = 0;
    for (const Sample &s : samples()) {
        const core::RunSetting *row = core::findRunSetting(s.key);
        ASSERT_NE(row, nullptr) << s.key;
        const bool servable = (row->takers & core::kRequest) != 0;
        const std::string flag = core::flagName(row->key);
        const std::string var = core::envName(row->key);
        std::vector<std::string> texts = hostileTexts();
        texts.push_back(s.valid);
        texts.push_back(s.overRange);
        for (std::string &m : mutants(s.valid, rng, 200))
            texts.push_back(std::move(m));

        for (const std::string &text : texts) {
            core::Settings byArgv;
            std::string argvError;
            const bool argvOk = viaArgv(*row, text, byArgv, argvError);
            // "" sets no variable; every other text goes through the
            // environment as well.
            const bool byVar = !text.empty();
            core::Settings byEnv;
            std::string envError;
            const bool envOk =
                byVar ? viaEnv(*row, text, byEnv, envError) : argvOk;
            if (!byVar)
                byEnv = byArgv;

            serve::Request request;
            std::string served;
            const std::string line = requestLine(*row, text);
            const bool servedOk = serve::parseRequest(
                line, core::RunPolicy{}, request, served);

            ASSERT_EQ(argvOk, envOk) << var << "='" << text << "'";
            if (servable) {
                ASSERT_EQ(argvOk, servedOk)
                    << line << "\n served: " << served;
            } else {
                EXPECT_EQ(served, "unknown field '" + std::string(s.key) +
                                      "'");
            }
            if (argvOk) {
                ++accepted;
                EXPECT_EQ(settingsOf(byArgv), settingsOf(byEnv)) << text;
                if (servable) {
                    EXPECT_EQ(settingsOf(byArgv), settingsOf(request))
                        << line;
                }
            } else {
                ++rejected;
                EXPECT_EQ(settingsOf(byArgv), defaults)
                    << "a rejected text wrote a value: " << line;
                EXPECT_EQ(settingsOf(byEnv), defaults)
                    << "a rejected text wrote a value: " << line;
                EXPECT_EQ(argvError, core::invalidValue(flag, text, *row));
                if (byVar) {
                    EXPECT_EQ(envError, core::invalidValue(var, text, *row));
                    EXPECT_EQ(
                        envError.rfind("invalid " + var + " value '", 0), 0u)
                        << envError;
                }
                if (servable) {
                    EXPECT_EQ(served,
                              core::invalidValue(row->key, text, *row));
                }
            }
        }
        core::Settings settings;
        EXPECT_TRUE(row->apply(s.valid, settings)) << s.valid;
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
        {"cache_kb", "1", true},       {"cache_kb", "1024", true},
        {"cache_kb", "2048", false},   {"cache_kb", "1048576", false},
        {"cache_kb", "0", false},      {"cache_kb", "4194304", false},
        {"cache_kb", "96", false},     {"size", "0", false},
        {"size", "67108864", true},    {"size", "67108865", false},
        {"iterations", "0", true},
        {"retries", "0", false},       {"retries", "100", true},
        {"deadline_s", "0", true},     {"deadline_s", "1e3", true},
        {"deadline_s", "-1", false},   {"deadline_s", "1e999", false},
        {"max_events", "18446744073709551615", true},
        {"topology", "cube", true},    {"gap", "bisection", true},
        {"protocol", "berkeley", true}, {"machine", "logp+c", true},
        {"app", "synthetic", true},    {"check", "true", true},
        {"check", "1", false},         {"trace", "all", true},
        {"fault_plan", "stall@500", true},
        {"fault_plan", "explode@9", false},
        {"metric", "exec", true},      {"metric", "speed", false},
        {"max_procs", "1048576", true}, {"max_procs", "0", false},
        {"jobs", "1", true},           {"jobs", "256", true},
        {"jobs", "0", false},          {"jobs", "4096", false},
        {"shard", "1/2", true},        {"shard", "2/2", false},
        {"shard", "1", false},         {"mode", "record", true},
        {"mode", "1", false},          {"trace_dir", "", false},
    };
    for (const Case &c : cases) {
        const core::RunSetting *row = core::findRunSetting(c.key);
        ASSERT_NE(row, nullptr) << c.key;
        core::Settings settings;
        EXPECT_EQ(row->apply(c.text, settings), c.ok)
            << c.key << "=" << c.text;
    }

    // Flags and variables follow the keys, with no aliases.
    EXPECT_EQ(core::flagName("cache_kb"), "--cache-kb");
    EXPECT_EQ(core::envName("cache_kb"), "ABSIM_CACHE_KB");
    EXPECT_EQ(core::findRunSettingFlag("--deadline-s"),
              core::findRunSetting("deadline_s"));
    for (const char *gone : {"--topo", "--iters", "--policy",
                             "--wall-seconds", "--no-check", "--cache_kb",
                             "--backoff-ms", "cache-kb", "--replay",
                             "--record", "-j", "--sweep"})
        EXPECT_EQ(core::findRunSettingFlag(gone), nullptr) << gone;

    // "exec" is exec_time.
    core::Settings settings;
    settings.metric = core::Metric::Latency;
    ASSERT_TRUE(core::findRunSetting("metric")->apply("exec", settings));
    EXPECT_EQ(settings.metric, core::Metric::ExecTime);
}

TEST(RunSettings, EachProgramTakesItsRows)
{
    const auto takenBy = [](unsigned taker) {
        std::set<std::string_view> keys;
        for (const core::RunSetting &row : core::runSettings())
            if ((row.takers & taker) != 0)
                keys.insert(row.key);
        return keys;
    };
    using Keys = std::set<std::string_view>;
    std::set<std::string_view> all;
    for (const core::RunSetting &row : core::runSettings())
        all.insert(row.key);

    Keys runCli = all;
    for (const char *key : {"figure", "ablation", "max_procs", "shard"})
        runCli.erase(key);
    EXPECT_EQ(takenBy(core::kRunCli), runCli);

    Keys request = all;
    for (const char *key :
         {"figure", "ablation", "jobs", "shard", "mode", "trace_dir"})
        request.erase(key);
    EXPECT_EQ(takenBy(core::kRequest), request);

    EXPECT_EQ(takenBy(core::kServe),
              (Keys{"deadline_s", "max_events", "max_sim_time",
                    "stall_limit", "retries", "trace"}));
    EXPECT_EQ(takenBy(core::kFigure),
              (Keys{"figure", "size", "deadline_s", "max_events",
                    "stall_limit", "trace", "max_procs", "jobs", "shard",
                    "mode", "trace_dir"}));
    EXPECT_EQ(takenBy(core::kAblation), (Keys{"ablation", "jobs"}));
}

TEST(RunSettings, FlagsOverrideVariablesOfTheProgramsRows)
{
    clearSettingsEnv();
    ::setenv("ABSIM_JOBS", "3", 1);
    ::setenv("ABSIM_SIZE", "512", 1);
    const auto apply = [](unsigned takers, std::vector<const char *> argv,
                          core::Settings &out, std::string &error,
                          std::vector<std::string> *rest = nullptr) {
        argv.insert(argv.begin(), "prog");
        return core::applySettings(takers, static_cast<int>(argv.size()),
                                   argv.data(), out, error, rest);
    };
    const core::Settings unset;
    core::Settings s;
    std::string error;
    ASSERT_TRUE(apply(core::kFigure, {}, s, error)) << error;
    EXPECT_EQ(s.jobs, 3u);
    EXPECT_EQ(s.config.params.n, 512u);

    s = unset;
    ASSERT_TRUE(apply(core::kFigure, {"--jobs", "2"}, s, error)) << error;
    EXPECT_EQ(s.jobs, 2u);

    // A program ignores the variables of rows it does not take, and
    // their flags are unknown options.
    s = unset;
    ASSERT_TRUE(apply(core::kAblation, {}, s, error)) << error;
    EXPECT_EQ(s.config.params.n, unset.config.params.n);
    EXPECT_FALSE(apply(core::kAblation, {"--size", "64"}, s, error));
    EXPECT_EQ(error, "unknown option '--size'");

    // Other arguments go to rest, in order, when the caller takes them.
    s = unset;
    std::vector<std::string> rest;
    ASSERT_TRUE(apply(core::kRunCli,
                      {"--sweep", "--metric", "latency", "-j", "4"}, s,
                      error, &rest))
        << error;
    EXPECT_EQ(rest, (std::vector<std::string>{"--sweep", "-j", "4"}));
    EXPECT_EQ(s.metric, core::Metric::Latency);

    EXPECT_FALSE(apply(core::kRunCli, {"--procs"}, s, error, &rest));
    EXPECT_EQ(error, "missing value after --procs");

    // An empty variable is unset, as for every ABSIM_* variable.
    ::setenv("ABSIM_SIZE", "", 1);
    s = unset;
    ASSERT_TRUE(apply(core::kFigure, {}, s, error)) << error;
    EXPECT_EQ(s.config.params.n, unset.config.params.n);
    clearSettingsEnv();
}

TEST(RunSettings, FaultPlanRejectionGivesTheParsersReason)
{
    clearSettingsEnv();
    const core::RunSetting &row = *core::findRunSetting("fault_plan");
    const struct
    {
        std::string text;
        std::string why;
    } cases[] = {
        {"stall@5:node=1", "node= applies only to wedge faults"},
        {"wedge@0", "trigger counts are 1-based (got 0)"},
        {"explode@9", "unknown fault kind \"explode\""},
    };
    for (const auto &c : cases) {
        core::Settings settings;
        std::string error;
        ASSERT_FALSE(viaArgv(row, c.text, settings, error)) << c.text;
        EXPECT_EQ(error.rfind("invalid --fault-plan value '" + c.text +
                                  "' (bad fault plan",
                              0),
                  0u)
            << error;
        EXPECT_NE(error.find(c.why), std::string::npos) << error;
        EXPECT_NE(error.find("; valid: "), std::string::npos) << error;

        serve::Request request;
        std::string served;
        ASSERT_FALSE(serve::parseRequest(requestLine(row, c.text),
                                         core::RunPolicy{}, request, served));
        EXPECT_NE(served.find(c.why), std::string::npos) << served;
    }

    // A row without a reason says only what is valid.
    const core::RunSetting &procs = *core::findRunSetting("procs");
    EXPECT_EQ(core::invalidValue("--procs", "3", procs),
              "invalid --procs value '3' (valid: " + procs.valid + ")");
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
