/**
 * @file
 * Self-tests for tools/absim_lint: every rule gets at least one
 * fixture-based positive (the seeded tree_viol tree) and one negative
 * (the tree_clean tree plus targeted lintSource probes), the
 * suppression grammar and --json schema round-trip are pinned, and the
 * binary's exit-code contract (2 on violations, 0 when clean) is
 * exercised end-to-end.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>

#include "lint.hh"

namespace {

using absim_lint::Diagnostic;
using absim_lint::LintOptions;
using absim_lint::LintResult;

LintResult
lintFixtureTree(const char *tree)
{
    LintOptions options;
    options.root = std::string(ABSIM_LINT_FIXTURE_DIR) + "/" + tree;
    options.paths = {"src"};
    return absim_lint::runLint(options);
}

/** (rule, file, line) triples, ignoring message wording. */
std::multiset<std::string>
keysOf(const std::vector<Diagnostic> &diagnostics)
{
    std::multiset<std::string> keys;
    for (const Diagnostic &d : diagnostics)
        keys.insert(d.rule + " " + d.file + ":" + std::to_string(d.line));
    return keys;
}

// ------------------------------------------------------- fixture trees

TEST(LintFixtures, ViolationTreeFlagsEveryRuleAtTheSeededLines)
{
    const LintResult result = lintFixtureTree("tree_viol");
    EXPECT_TRUE(result.errors.empty());

    const std::multiset<std::string> expected = {
        "D1 src/apps/viol_d1.cc:10",
        "D1 src/apps/viol_d1.cc:17",
        "D2 src/core/viol_d2.cc:21",
        "D2 src/core/viol_d2.cc:26",
        "G1 src/runtime/viol_g1.cc:9",
        "G1 src/runtime/viol_g1.cc:12",
        "C1 src/net/viol_c1.cc:10",
        "L1 src/net/viol_l1.hh:5",
        "R1 src/core/viol_r1.hh:17",
        "R1 src/core/viol_r1_use.cc:10",
        "SUP src/logp/viol_sup.cc:11",
        "SUP src/logp/viol_sup.cc:12",
        "SUP src/logp/viol_sup.cc:13",
    };
    EXPECT_EQ(keysOf(result.diagnostics), expected);
}

TEST(LintFixtures, CleanTreeIsCleanDespiteNearMisses)
{
    const LintResult result = lintFixtureTree("tree_clean");
    EXPECT_TRUE(result.errors.empty());
    EXPECT_EQ(result.diagnostics.size(), 0u) <<
        absim_lint::formatText(result);
    EXPECT_EQ(result.filesScanned, 6);
}

TEST(LintFixtures, DiagnosticsAreSortedByFileLineRule)
{
    const LintResult result = lintFixtureTree("tree_viol");
    ASSERT_GT(result.diagnostics.size(), 1u);
    for (std::size_t i = 1; i < result.diagnostics.size(); ++i) {
        const Diagnostic &a = result.diagnostics[i - 1];
        const Diagnostic &b = result.diagnostics[i];
        EXPECT_LE(std::tie(a.file, a.line, a.rule),
                  std::tie(b.file, b.line, b.rule));
    }
}

// --------------------------------------------------- per-rule probes

std::vector<Diagnostic>
lintAt(const std::string &path, const std::string &source)
{
    return absim_lint::lintSource(path, source);
}

TEST(LintRules, D1FlagsCallsInSrcButNotInTests)
{
    const std::string source = "int f() { return rand(); }\n";
    const auto inSrc = lintAt("src/apps/x.cc", source);
    ASSERT_EQ(inSrc.size(), 1u);
    EXPECT_EQ(inSrc[0].rule, "D1");
    EXPECT_EQ(inSrc[0].line, 1);

    // Scope: tests/ may use wall clocks and rand freely.
    EXPECT_TRUE(lintAt("tests/x.cc", source).empty());
}

TEST(LintRules, D1AllowlistCoversTheWatchdogBudgetFiles)
{
    const std::string source =
        "auto t = std::chrono::steady_clock::now();\n";
    EXPECT_TRUE(lintAt("src/sim/event_queue.hh", source).empty());
    EXPECT_EQ(lintAt("src/sim/other.hh", source).size(), 1u);
}

TEST(LintRules, D1AllowlistRecordsTheSanctionedBenchTimer)
{
    // bench/ is outside D1's src/-only scope, so this entry is
    // documentary — but it must exist (with a rationale) so the
    // sanction survives any future widening of the rule's scope.
    bool found = false;
    for (const auto &entry : absim_lint::allowlist()) {
        if (std::string(entry.rule) == "D1" &&
            std::string(entry.file) == "bench/bench_common.hh") {
            found = true;
            EXPECT_FALSE(std::string(entry.reason).empty());
        }
    }
    EXPECT_TRUE(found);
}

TEST(LintRules, D1IgnoresMembersAndStrings)
{
    EXPECT_TRUE(lintAt("src/apps/x.cc",
                       "int g() { return profile.time(); }\n")
                    .empty());
    EXPECT_TRUE(lintAt("src/apps/x.cc",
                       "const char *s = \"rand() time()\";\n")
                    .empty());
}

TEST(LintRules, D2FlagsPointerKeysOnlyOnOutputPaths)
{
    const std::string source =
        "#include <unordered_map>\n"
        "struct Node;\n"
        "std::unordered_map<const Node *, int> byNode;\n";
    const auto onOutputPath = lintAt("src/core/x.cc", source);
    ASSERT_EQ(onOutputPath.size(), 1u);
    EXPECT_EQ(onOutputPath[0].rule, "D2");

    // Same container off the byte-emitting paths: allowed.
    EXPECT_TRUE(lintAt("src/net/x.cc", source).empty());

    // Value keys on an output path: allowed.
    EXPECT_TRUE(lintAt("src/core/y.cc",
                       "std::unordered_map<unsigned, int> byId;\n")
                    .empty());
}

TEST(LintRules, G1FlagsBareParsersOutsideTheEnvFunnel)
{
    const std::string source = "int v = atoi(getenv(\"X\"));\n";
    const auto elsewhere = lintAt("src/runtime/x.cc", source);
    ASSERT_EQ(elsewhere.size(), 2u);
    EXPECT_EQ(elsewhere[0].rule, "G1");
    EXPECT_EQ(elsewhere[1].rule, "G1");

    EXPECT_TRUE(lintAt("src/core/env.cc", source).empty());
}

TEST(LintRules, C1FlagsBareAssertOutsideSrcCheck)
{
    const std::string source =
        "#include <cassert>\nvoid f(int n) { assert(n > 0); }\n";
    const auto elsewhere = lintAt("src/net/x.cc", source);
    ASSERT_EQ(elsewhere.size(), 1u);
    EXPECT_EQ(elsewhere[0].rule, "C1");

    EXPECT_TRUE(lintAt("src/check/x.cc", source).empty());
    EXPECT_TRUE(
        lintAt("src/net/y.cc", "static_assert(true, \"ok\");\n").empty());
}

TEST(LintRules, L1FlagsUpwardIncludes)
{
    const auto upward = lintAt("src/net/x.hh",
                               "#include \"runtime/context.hh\"\n");
    ASSERT_EQ(upward.size(), 1u);
    EXPECT_EQ(upward[0].rule, "L1");

    EXPECT_TRUE(
        lintAt("src/mem/x.hh", "#include \"net/topology.hh\"\n").empty());
    EXPECT_TRUE(
        lintAt("src/net/y.hh", "#include <vector>\n").empty());
}

TEST(LintRules, R1FlagsUnannotatedDeclsAndDiscardedCalls)
{
    const auto decl = lintAt(
        "src/core/x.hh",
        "struct E {};\n"
        "template <typename T, typename V> class Result {};\n"
        "Result<int, E> tryThing(int input);\n");
    ASSERT_EQ(decl.size(), 1u);
    EXPECT_EQ(decl[0].rule, "R1");
    EXPECT_EQ(decl[0].line, 3);

    // Seeded cross-file name, result dropped on the floor.
    const auto discarded =
        lintAt("src/core/y.cc", "void f() { runOneSafe(0); }\n");
    ASSERT_EQ(discarded.size(), 1u);
    EXPECT_EQ(discarded[0].rule, "R1");

    // Annotated decl + consumed call: clean.
    EXPECT_TRUE(lintAt("src/core/z.hh",
                       "struct E {};\n"
                       "template <typename T, typename V> "
                       "class Result {};\n"
                       "[[nodiscard]] Result<int, E> tryThing(int n);\n")
                    .empty());
    EXPECT_TRUE(lintAt("src/core/w.cc",
                       "int f() { auto r = runOneSafe(0); return 0; }\n")
                    .empty());
}

// --------------------------------------------------- suppressions

TEST(LintSuppression, SameLineAndOwnLineSuppressionsApply)
{
    EXPECT_TRUE(lintAt("src/apps/x.cc",
                       "int f() { return rand(); } "
                       "// absim-lint: D1 ok(fixture probe)\n")
                    .empty());
    EXPECT_TRUE(lintAt("src/apps/y.cc",
                       "// absim-lint: D1 ok(fixture probe)\n"
                       "int f() { return rand(); }\n")
                    .empty());
}

TEST(LintSuppression, SuppressionIsRuleAndLineScoped)
{
    // Wrong rule id: the D1 diagnostic survives.
    const auto wrongRule = lintAt(
        "src/apps/x.cc",
        "int f() { return rand(); } // absim-lint: C1 ok(wrong rule)\n");
    ASSERT_EQ(wrongRule.size(), 1u);
    EXPECT_EQ(wrongRule[0].rule, "D1");

    // Own-line suppression only reaches the next line, not beyond.
    const auto tooFar = lintAt("src/apps/y.cc",
                               "// absim-lint: D1 ok(next line only)\n"
                               "int a = 0;\n"
                               "int f() { return rand(); }\n");
    ASSERT_EQ(tooFar.size(), 1u);
    EXPECT_EQ(tooFar[0].rule, "D1");
    EXPECT_EQ(tooFar[0].line, 3);
}

TEST(LintSuppression, MalformedSuppressionsAreThemselvesDiagnostics)
{
    const char *bad[] = {
        "// absim-lint: D9 ok(no such rule)\n",
        "// absim-lint: D1\n",
        "// absim-lint: D1 ok()\n",
        "// absim-lint D1 ok(missing colon)\n",
        "// absim-lint: D1 ok(reason) trailing junk\n",
    };
    for (const char *source : bad) {
        const auto diags = lintAt("src/apps/x.cc", source);
        ASSERT_EQ(diags.size(), 1u) << source;
        EXPECT_EQ(diags[0].rule, "SUP") << source;
        EXPECT_EQ(diags[0].line, 1) << source;
    }
}

// --------------------------------------------------- layer DAG

TEST(LintLayers, TableOrderProvesAcyclicity)
{
    // Every directory a layer may include must appear STRICTLY EARLIER
    // in the table; with that, an include cycle is impossible.
    const auto &table = absim_lint::layerTable();
    ASSERT_FALSE(table.empty());
    std::set<std::string> seen;
    for (const auto &layer : table) {
        for (const char *dep : layer.allowed)
            EXPECT_TRUE(seen.count(dep))
                << layer.dir << " -> " << dep
                << " refers to a later (higher) layer";
        EXPECT_TRUE(seen.insert(layer.dir).second)
            << "duplicate layer " << layer.dir;
    }
}

TEST(LintLayers, EveryAllowedDirIsItselfALayer)
{
    const auto &table = absim_lint::layerTable();
    std::set<std::string> dirs;
    for (const auto &layer : table)
        dirs.insert(layer.dir);
    for (const auto &layer : table)
        for (const char *dep : layer.allowed)
            EXPECT_TRUE(dirs.count(dep)) << dep;
}

// --------------------------------------------------- JSON schema

TEST(LintJson, EncodeDecodeRoundTripsExactly)
{
    const LintResult original = lintFixtureTree("tree_viol");
    ASSERT_FALSE(original.diagnostics.empty());

    LintResult decoded;
    ASSERT_TRUE(absim_lint::decodeJson(absim_lint::encodeJson(original),
                                       decoded));
    EXPECT_EQ(decoded.filesScanned, original.filesScanned);
    ASSERT_EQ(decoded.diagnostics.size(), original.diagnostics.size());
    for (std::size_t i = 0; i < original.diagnostics.size(); ++i)
        EXPECT_EQ(decoded.diagnostics[i], original.diagnostics[i]) << i;
}

TEST(LintJson, EscapesQuotesBackslashesAndControlBytes)
{
    LintResult tricky;
    tricky.filesScanned = 1;
    Diagnostic d;
    d.rule = "D1";
    d.file = "src/apps/a \"b\".cc";
    d.line = 7;
    d.message = "quote \" backslash \\ tab \t newline \n done";
    tricky.diagnostics.push_back(d);

    LintResult decoded;
    ASSERT_TRUE(
        absim_lint::decodeJson(absim_lint::encodeJson(tricky), decoded));
    ASSERT_EQ(decoded.diagnostics.size(), 1u);
    EXPECT_EQ(decoded.diagnostics[0], d);
}

TEST(LintJson, BracesInsideStringsRoundTrip)
{
    // The old decoder matched each object's end with find('}'), so a
    // message naming a brace-initializer failed to decode.
    LintResult result;
    result.filesScanned = 2;
    Diagnostic d;
    d.rule = "R1";
    d.file = "src/core/{odd}.cc";
    d.line = 12;
    d.message = "discarded result of f() {see} \"x\"}";
    result.diagnostics = {d, d};

    LintResult decoded;
    ASSERT_TRUE(
        absim_lint::decodeJson(absim_lint::encodeJson(result), decoded));
    ASSERT_EQ(decoded.diagnostics.size(), 2u);
    EXPECT_EQ(decoded.diagnostics[0], d);
    EXPECT_EQ(decoded.diagnostics[1], d);
}

TEST(LintJson, DecodeRejectsMalformedDocuments)
{
    LintResult out;
    EXPECT_FALSE(absim_lint::decodeJson("", out));
    EXPECT_FALSE(absim_lint::decodeJson("not json", out));
    EXPECT_FALSE(absim_lint::decodeJson("{\"absim_lint\":1", out));
    // Out-of-range integers are a decode failure, not std::out_of_range.
    EXPECT_FALSE(absim_lint::decodeJson(
        "{\"absim_lint\":1,\"files_scanned\":99999999999,\"count\":0,"
        "\"violations\":[]}",
        out));
    EXPECT_FALSE(absim_lint::decodeJson(
        "{\"absim_lint\":1,\"files_scanned\":1,\"count\":1,"
        "\"violations\":[{\"file\":\"a.cc\",\"line\":99999999999,"
        "\"rule\":\"D1\",\"message\":\"m\"}]}",
        out));
    // A count that disagrees with the array, and a bad escape.
    EXPECT_FALSE(absim_lint::decodeJson(
        "{\"absim_lint\":1,\"files_scanned\":1,\"count\":2,"
        "\"violations\":[]}",
        out));
    EXPECT_FALSE(absim_lint::decodeJson(
        "{\"absim_lint\":1,\"files_scanned\":1,\"count\":1,"
        "\"violations\":[{\"file\":\"\\uzzzz\",\"line\":1,"
        "\"rule\":\"D1\",\"message\":\"m\"}]}",
        out));
    EXPECT_TRUE(absim_lint::decodeJson(
        "{\"absim_lint\":1,\"files_scanned\":3,\"count\":0,"
        "\"violations\":[]}\n",
        out));
    EXPECT_EQ(out.filesScanned, 3);
}

// --------------------------------------------------- binary contract

int
runBinary(const std::string &args, std::string *captured)
{
    // One file per test: ctest -j runs each test in its own process
    // concurrently, and a shared file would let them read each other's
    // output.
    const ::testing::TestInfo *test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    const std::string outPath = std::string(::testing::TempDir()) +
                                "absim_lint_out_" + test->name() + ".json";
    const std::string command = std::string(ABSIM_LINT_BIN) + " " + args +
                                " > " + outPath + " 2>&1";
    const int status = std::system(command.c_str());
    if (captured) {
        std::ifstream in(outPath);
        std::ostringstream text;
        text << in.rdbuf();
        *captured = text.str();
    }
    std::remove(outPath.c_str());
    EXPECT_TRUE(WIFEXITED(status)) << command;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(LintBinary, SeededViolationsYieldExitTwoAndNamedRules)
{
    std::string output;
    const int code = runBinary("--json --root " ABSIM_LINT_FIXTURE_DIR
                               "/tree_viol src",
                               &output);
    EXPECT_EQ(code, 2);

    LintResult decoded;
    ASSERT_TRUE(absim_lint::decodeJson(output, decoded)) << output;
    EXPECT_EQ(decoded.diagnostics.size(), 13u);
    std::set<std::string> rules;
    for (const Diagnostic &d : decoded.diagnostics)
        rules.insert(d.rule);
    const std::set<std::string> expected = {"C1", "D1", "D2", "G1",
                                            "L1", "R1", "SUP"};
    EXPECT_EQ(rules, expected);
}

TEST(LintBinary, CleanTreeYieldsExitZero)
{
    std::string output;
    const int code = runBinary("--root " ABSIM_LINT_FIXTURE_DIR
                               "/tree_clean src",
                               &output);
    EXPECT_EQ(code, 0);
    EXPECT_NE(output.find("clean"), std::string::npos) << output;
}

TEST(LintBinary, UnknownRuleFilterIsAUsageError)
{
    const int code = runBinary("--rules NOPE --root " ABSIM_LINT_FIXTURE_DIR
                               "/tree_clean src",
                               nullptr);
    EXPECT_EQ(code, 2);
}

} // namespace
