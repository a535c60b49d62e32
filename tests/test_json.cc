/**
 * @file
 * Tests for the one JSON reader (json/json.hh): the grammar it accepts
 * and rejects, the writers' historical bytes, and a seeded mutation
 * sweep over every line format the tree reads through it — each hostile
 * input must decode or fail by name, never throw.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/cache_key.hh"
#include "core/journal.hh"
#include "json/json.hh"
#include "lint.hh"
#include "serve/protocol.hh"
#include "serve/result_cache.hh"
#include "sim/rng.hh"
#include "trace_replay/format.hh"

namespace {

using namespace absim;

// ---------------------------------------------------------------------
// Grammar.

TEST(Json, ParsesEveryValueTypeInDocumentOrder)
{
    json::Value doc;
    ASSERT_TRUE(json::parse(" {\"z\":null,\"a\":[1,-0.5e+2,\"s\",false],"
                            "\"o\":{\"t\":true},\"e\":{}}\r\n",
                            doc));
    ASSERT_EQ(doc.type, json::Type::Object);
    ASSERT_EQ(doc.members.size(), 4u);
    EXPECT_EQ(doc.members[0].key, "z");
    EXPECT_EQ(doc.members[0].value.type, json::Type::Null);
    const json::Value *a = doc.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->items.size(), 4u);
    EXPECT_EQ(a->items[1].text, "-0.5e+2");
    EXPECT_EQ(a->items[2].text, "s");
    EXPECT_EQ(a->items[3].type, json::Type::Bool);
    EXPECT_EQ(a->items[3].text, "false");
    ASSERT_NE(doc.find("o"), nullptr);
    EXPECT_EQ(doc.find("o")->find("t")->text, "true");
    EXPECT_EQ(doc.find("missing"), nullptr);
    ASSERT_TRUE(json::parse("42", doc));
    EXPECT_EQ(doc.type, json::Type::Number);
}

TEST(Json, RejectsWhatTheGrammarRejectsWithAReason)
{
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"", "unexpected end of input"},
        {"   ", "unexpected end of input"},
        {"{\"a\":1}x", "trailing bytes"},
        {"{\"a\":1} {}", "trailing bytes"},
        {"{\"a\":1,\"a\":2}", "duplicate key"},
        {"{\"a\":{\"b\":1,\"b\":1}}", "duplicate key"},
        {"{a:1}", "expected a string key"},
        {"{\"a\" 1}", "expected ':'"},
        {"{\"a\":1,}", "expected a string key"},
        {"[1,]", "unexpected character"},
        {"[1 2]", "expected ',' or ']'"},
        {"\"tor", "unterminated string"},
        {"\"a\\", "unterminated string"},
        {"\"tab\there\"", "raw control byte"},
        {"\"\\x41\"", "unknown escape"},
        {"\"\\'\"", "unknown escape"},
        {"\"\\u12\"", "four hex digits"},
        {"\"\\u12", "four hex digits"},
        {"\"\\uzzzz\"", "four hex digits"},
        {"\"\\ud83d\\ude00\"", "surrogate"},
        {"01", "trailing bytes"},
        {"-", "malformed number"},
        {"1.", "malformed number"},
        {"1e", "malformed number"},
        {"+1", "unexpected character"},
        {".5", "unexpected character"},
        {"tru", "unexpected character"},
        {"nul", "unexpected character"},
        {"NaN", "unexpected character"},
        {"[[[[[[[[[1]]]]]]]]]", "nesting too deep"},
    };
    for (const auto &[text, reason] : cases) {
        json::Value doc;
        std::string why;
        EXPECT_FALSE(json::parse(text, doc, &why)) << text;
        EXPECT_NE(why.find(reason), std::string::npos)
            << text << " -> " << why;
    }
    json::Value doc;
    EXPECT_TRUE(json::parse("[[[[[[[[1]]]]]]]]", doc)); // kMaxDepth deep.
}

TEST(Json, EscapesDecodeToUtf8)
{
    json::Value doc;
    ASSERT_TRUE(json::parse("\"\\\"\\\\\\/\\b\\f\\n\\r\\t"
                            "\\u0041\\u00e9\\u0170\\uFFFF\\u0000\"",
                            doc));
    EXPECT_EQ(doc.text, std::string("\"\\/\b\f\n\r\tA\xc3\xa9\xc5\xb0"
                                    "\xef\xbf\xbf", 16) +
                            std::string(1, '\0'));
    // Bytes at or above 0x80 pass through untouched.
    ASSERT_TRUE(json::parse("\"\xc3\xa9\xff\"", doc));
    EXPECT_EQ(doc.text, "\xc3\xa9\xff");
}

TEST(Json, NumberConversionsAreChecked)
{
    json::Value doc;
    std::uint64_t u = 0;
    double d = 0.0;
    ASSERT_TRUE(json::parse("18446744073709551615", doc));
    ASSERT_TRUE(json::toUint(doc, u));
    EXPECT_EQ(u, 18446744073709551615ull);
    ASSERT_TRUE(json::parse("18446744073709551616", doc));
    EXPECT_FALSE(json::toUint(doc, u));
    for (const char *text : {"-1", "1.0", "1e3", "\"7\"", "true"}) {
        ASSERT_TRUE(json::parse(text, doc)) << text;
        EXPECT_FALSE(json::toUint(doc, u)) << text;
    }
    ASSERT_TRUE(json::parse("1e400", doc));
    EXPECT_FALSE(json::toDouble(doc, d));
    ASSERT_TRUE(json::parse("\"1.5\"", doc));
    EXPECT_FALSE(json::toDouble(doc, d));
    for (const double v : {0.1, 1.0 / 3.0, -2.5e-300, 1290.43, 4.9e-324}) {
        ASSERT_TRUE(json::parse(json::formatDouble(v), doc));
        ASSERT_TRUE(json::toDouble(doc, d));
        EXPECT_EQ(d, v);
    }
}

TEST(Json, WritersKeepTheirHistoricalBytes)
{
    std::string every;
    for (int c = 1; c < 0x80; ++c)
        every += static_cast<char>(c);
    std::string expected;
    for (int c = 1; c < 0x80; ++c) {
        if (c == '"')
            expected += "\\\"";
        else if (c == '\\')
            expected += "\\\\";
        else if (c == '\n')
            expected += "\\n";
        else if (c == '\r')
            expected += "\\r";
        else if (c == '\t')
            expected += "\\t";
        else if (c < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            expected += buf;
        } else {
            expected += static_cast<char>(c);
        }
    }
    EXPECT_EQ(json::jsonEscape(every), expected);
    EXPECT_EQ(json::jsonEscape("\xc3\xa9"), "\xc3\xa9");
    EXPECT_EQ(json::formatDouble(0.1), "0.10000000000000001");
    EXPECT_EQ(json::formatDouble(2.0), "2");
}

// ---------------------------------------------------------------------
// Seeded mutation sweep.

/** Applies one to three random edits: a byte flip, a truncation, or an
 *  insertion of a byte sequence that stresses the string, escape,
 *  container and number paths. */
std::string
mutate(sim::Rng &rng, std::string text)
{
    static const char *const kInserts[] = {"\\", "\\u", "\"", "{", "[",
                                           "0", "9", "\\u12", "}", "]",
                                           ",", ":", "-", "e"};
    const std::uint64_t edits = 1 + rng.below(3);
    for (std::uint64_t e = 0; e < edits; ++e) {
        const std::size_t at =
            text.empty() ? 0 : static_cast<std::size_t>(
                                   rng.below(text.size()));
        switch (rng.below(3)) {
          case 0:
            if (!text.empty())
                text[at] = static_cast<char>(
                    text[at] ^ static_cast<char>(1u << rng.below(8)));
            break;
          case 1:
            text.resize(at);
            break;
          default:
            text.insert(at, kInserts[rng.below(std::size(kInserts))]);
        }
    }
    return text;
}

constexpr int kMutations = 2000;

/** Feed kMutations mutants of @p sample to @p decode.  Every mutant
 *  must decode or fail without throwing, and json::parse must name the
 *  reason of every failure. */
void
sweep(std::uint64_t seed, const std::string &sample,
      const std::function<bool(const std::string &)> &decode)
{
    sim::Rng rng(seed);
    ASSERT_TRUE(decode(sample)) << "the unmutated sample must decode";
    int decoded = 0;
    for (int i = 0; i < kMutations; ++i) {
        const std::string mutant = mutate(rng, sample);
        json::Value doc;
        std::string why;
        if (!json::parse(mutant, doc, &why)) {
            EXPECT_FALSE(why.empty()) << mutant;
        }
        bool ok = false;
        EXPECT_NO_THROW(ok = decode(mutant)) << mutant;
        decoded += ok ? 1 : 0;
    }
    // Most edits break the line; some (a flipped digit) still decode.
    EXPECT_LT(decoded, kMutations);
}

TEST(JsonMutation, JournalHeaderAndRecords)
{
    core::JournalHeader header;
    header.title = "Figure 14";
    header.app = "is";
    header.topology = "full";
    header.metric = "exec";
    header.machines = {"target", "logp"};
    header.shard = {1, 4};
    core::JournalWriter writer;
    const std::string path =
        testing::TempDir() + "absim_json_mutation_journal.jsonl";
    ASSERT_TRUE(writer.start(path, header, 1));
    writer.close();
    std::ifstream in(path);
    std::string headerLine;
    ASSERT_TRUE(std::getline(in, headerLine));
    std::remove(path.c_str());
    sweep(1, headerLine, [](const std::string &line) {
        core::JournalHeader out;
        return core::decodeHeader(line, out);
    });

    core::JournalRecord success;
    success.procs = 8;
    success.machine = "logp+c";
    success.value = 1.0 / 3.0;
    sweep(2, core::encodeRecord(success), [](const std::string &line) {
        core::JournalRecord out;
        return core::decodeRecord(line, out);
    });

    core::JournalRecord failure;
    failure.procs = 16;
    failure.failed = true;
    failure.machine = "logp";
    failure.error = "Deadlock";
    failure.message = "clock stuck at \"0 ns\"\n\x01";
    failure.trace = "[5] send p0 -> p1\n";
    sweep(3, core::encodeRecord(failure), [](const std::string &line) {
        core::JournalRecord out;
        return core::decodeRecord(line, out);
    });
}

TEST(JsonMutation, ServeRequest)
{
    const core::RunPolicy defaults;
    sweep(4,
          "{\"op\":\"run\",\"app\":\"is\",\"machine\":\"logpc\","
          "\"procs\":8,\"size\":256,\"deadline_s\":2.5,\"check\":true,"
          "\"variant\":\"a\\u0001b\",\"fault_plan\":\"seed=7\"}",
          [&](const std::string &line) {
              serve::Request request;
              std::string error;
              return serve::parseRequest(line, defaults, request, error);
          });
}

TEST(JsonMutation, CacheEntryReopen)
{
    // A reopen fsyncs, so this sweep reads each mutant through the
    // cache loader a tenth as often as the in-memory formats.
    const std::string path =
        testing::TempDir() + "absim_json_mutation_cache.jsonl";
    std::string entry;
    {
        std::remove(path.c_str());
        serve::ResultCache cache;
        ASSERT_TRUE(cache.open(path));
        cache.insert(0x1234, "", "{\"status\":\"ok\",\"value\":1.5}");
        cache.close();
        std::ifstream in(path);
        std::string header;
        ASSERT_TRUE(std::getline(in, header));
        ASSERT_TRUE(std::getline(in, entry));
    }
    sim::Rng rng(5);
    int recovered = 0;
    for (int i = 0; i < kMutations / 10; ++i) {
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out << "{\"absim_cache\":1}\n" << mutate(rng, entry) << "\n";
        }
        serve::ResultCache cache;
        bool opened = false;
        EXPECT_NO_THROW(opened = cache.open(path));
        EXPECT_TRUE(opened);
        recovered += static_cast<int>(cache.recoveredEntries());
    }
    std::remove(path.c_str());
    EXPECT_LT(recovered, kMutations / 10);
}

TEST(JsonMutation, TraceHeader)
{
    trace::Trace t;
    t.procs = 1;
    t.app = "tiny";
    t.variant = "v\"1";
    t.untraceableWhy = "why\n";
    t.phaseNames = {"main", "sort"};
    trace::encodeStreams(t, {{trace::Op{}}});
    const std::string path =
        testing::TempDir() + "absim_json_mutation_trace.abt";
    trace::saveTrace(t, path);
    std::string blob;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream text;
        text << in.rdbuf();
        blob = text.str();
    }
    // Header and binary body, without the 8-byte FNV-1a trailer.
    const std::string body = blob.substr(0, blob.size() - 8);
    const std::size_t nl = body.find('\n');
    ASSERT_NE(nl, std::string::npos);
    const std::string rest = body.substr(nl);
    sweep(6, body.substr(0, nl), [&](const std::string &header) {
        // Re-stamp the FNV-1a checksum so only the header reader judges.
        std::string file = header + rest;
        const std::uint64_t sum = core::fnv1a64(file);
        for (unsigned i = 0; i < 8; ++i)
            file += static_cast<char>((sum >> (8 * i)) & 0xff);
        std::ofstream(path, std::ios::binary | std::ios::trunc) << file;
        trace::Trace loaded;
        return trace::loadTrace(path, loaded);
    });
    std::remove(path.c_str());
}

TEST(JsonMutation, LintReport)
{
    absim_lint::LintResult result;
    result.filesScanned = 3;
    result.diagnostics.push_back(
        {"D1", "src/a.cc", 7, "banned call rand() {x}"});
    result.diagnostics.push_back(
        {"L1", "src/b \"c\".cc", 12, "layering: \\ tab\t"});
    sweep(7, absim_lint::encodeJson(result), [](const std::string &text) {
        absim_lint::LintResult out;
        return absim_lint::decodeJson(text, out);
    });
}

} // namespace
