/**
 * @file
 * Tests for the sweep checkpoint journal: record encoding, crash
 * tolerance, and the headline guarantee — a sweep interrupted between
 * points resumes from its journal and produces byte-identical final
 * JSON to an uninterrupted run.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/figures.hh"
#include "core/journal.hh"
#include "core/journal_merge.hh"
#include "json/json.hh"

namespace {

using namespace absim;

/** Write @p path through a JournalWriter: @p header, then @p records. */
void
writeJournal(const std::string &path, const core::JournalHeader &header,
             const std::vector<core::JournalRecord> &records = {},
             const std::vector<std::string> &columns =
                 core::defaultJournalColumns())
{
    core::JournalWriter writer;
    EXPECT_TRUE(writer.start(path, header));
    for (const core::JournalRecord &record : records)
        writer.append(record, columns);
    writer.close();
}

TEST(Journal, EscapeRoundTripsControlAndQuoteCharacters)
{
    const std::string nasty = "a \"quoted\\path\"\nwith\ttabs\rand \x01";
    json::Value decoded;
    ASSERT_TRUE(
        json::parse("\"" + core::jsonEscape(nasty) + "\"", decoded));
    EXPECT_EQ(decoded.text, nasty);
    EXPECT_EQ(core::jsonEscape("plain"), "plain");
}

TEST(Journal, FormatDoubleRoundTripsExactly)
{
    for (const double v : {1.0, 0.1, 1.0 / 3.0, 12345.6789e-7, 2.5e300}) {
        const std::string text = core::formatDouble(v);
        EXPECT_EQ(std::stod(text), v) << text;
    }
}

TEST(Journal, RecordEncodeDecodeRoundTrips)
{
    core::JournalRecord success;
    success.procs = 8;
    success.values = {1.0 / 3.0, 2.75, 1e-9};
    core::JournalRecord out;
    ASSERT_TRUE(core::decodeRecord(core::encodeRecord(success), out));
    EXPECT_FALSE(out.failed);
    EXPECT_EQ(out.procs, 8u);
    EXPECT_EQ(out.values, success.values);

    core::JournalRecord failure;
    failure.procs = 16;
    failure.failed = true;
    failure.machine = "logp";
    failure.error = "Deadlock";
    failure.message = "clock stuck at \"0 ns\"";
    ASSERT_TRUE(core::decodeRecord(core::encodeRecord(failure), out));
    EXPECT_TRUE(out.failed);
    EXPECT_EQ(out.procs, 16u);
    EXPECT_EQ(out.machine, "logp");
    EXPECT_EQ(out.error, "Deadlock");
    EXPECT_EQ(out.message, failure.message);
}

TEST(Journal, FailureRecordCarriesOptionalTraceExcerpt)
{
    core::JournalRecord failure;
    failure.procs = 16;
    failure.failed = true;
    failure.machine = "logp";
    failure.error = "Deadlock";
    failure.message = "clock stuck";
    failure.trace = "[5] send p0 -> p1\n[9] recv p1\n";

    const std::string line = core::encodeRecord(failure);
    core::JournalRecord out;
    ASSERT_TRUE(core::decodeRecord(line, out));
    EXPECT_EQ(out.trace, failure.trace);

    // A traceless failure encodes without the field at all, so journals
    // written before trace capture existed keep their exact bytes.
    failure.trace.clear();
    EXPECT_EQ(core::encodeRecord(failure).find("\"trace\""),
              std::string::npos);
    ASSERT_TRUE(core::decodeRecord(core::encodeRecord(failure), out));
    EXPECT_TRUE(out.trace.empty());
}

TEST(Journal, FsyncIntervalDefaultsToCompiledConstant)
{
    // With ABSIM_FSYNC_INTERVAL unset the knob is the compiled default;
    // the garbage/zero path (exit 2) is pinned by a bench ctest.
    EXPECT_EQ(core::journalFsyncInterval(), core::kJournalFsyncInterval);
}

TEST(Journal, DecodeRejectsTornLines)
{
    core::JournalRecord out;
    EXPECT_FALSE(core::decodeRecord("", out));
    EXPECT_FALSE(core::decodeRecord("{\"procs\":8,\"target\":1.5", out));
    EXPECT_FALSE(core::decodeRecord("{\"procs\":8}", out));
    EXPECT_FALSE(
        core::decodeRecord("{\"procs\":8,\"machine\":\"logp", out));
}

TEST(Journal, DecodeRejectsWeldedLines)
{
    // A record torn mid-key with the next record appended after it: the
    // welded line still holds every key, but it is not one object.
    core::JournalRecord out;
    EXPECT_FALSE(core::decodeRecord(
        "{\"procs\":8,\"tar{\"procs\":16,\"target\":1.5,\"logp\":2,"
        "\"logpc\":3}",
        out));
}

TEST(Journal, DecodeRejectsDuplicateKeys)
{
    core::JournalRecord out;
    EXPECT_FALSE(core::decodeRecord(
        "{\"procs\":8,\"procs\":16,\"target\":1.5,\"logp\":2,"
        "\"logpc\":3}",
        out));
    EXPECT_FALSE(core::decodeRecord(
        "{\"procs\":8,\"target\":1.5,\"logp\":2,\"logpc\":3,"
        "\"target\":9}",
        out));
    core::JournalHeader header;
    EXPECT_FALSE(core::decodeHeader(
        "{\"absim_journal\":1,\"title\":\"a\",\"app\":\"is\","
        "\"topology\":\"full\",\"metric\":\"exec\",\"app\":\"ep\"}",
        header));
}

TEST(ShardSpec, ParsesValidSpecsAndRejectsGarbage)
{
    core::ShardSpec spec;
    ASSERT_TRUE(core::ShardSpec::parse("0/2", spec));
    EXPECT_EQ(spec.index, 0u);
    EXPECT_EQ(spec.count, 2u);
    EXPECT_TRUE(spec.sharded());
    EXPECT_EQ(spec.str(), "0/2");
    EXPECT_TRUE(spec.owns(0));
    EXPECT_FALSE(spec.owns(1));
    EXPECT_TRUE(spec.owns(4));

    ASSERT_TRUE(core::ShardSpec::parse("3/8", spec));
    EXPECT_EQ(spec.index, 3u);
    EXPECT_EQ(spec.count, 8u);

    ASSERT_TRUE(core::ShardSpec::parse("0/1", spec));
    EXPECT_FALSE(spec.sharded());

    for (const char *bad : {"", "2/2", "3/2", "a/2", "1/b", "-1/2",
                            "1/-2", "1/0", "1/", "/2", "1/2/3", "1 /2",
                            "1/2 ", "0x1/2"})
        EXPECT_FALSE(core::ShardSpec::parse(bad, spec)) << bad;
}

TEST(Journal, HeaderStampsShardSpecAndKeepsLegacyBytes)
{
    const std::string path = testing::TempDir() + "absim_shard_hdr.jsonl";

    // An unsharded classic-trio header keeps the exact legacy line.
    writeJournal(path, {"t", "fft", "full", "exec_time"});
    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line,
              "{\"absim_journal\":1,\"title\":\"t\",\"app\":\"fft\","
              "\"topology\":\"full\",\"metric\":\"exec_time\"}");
    in.close();

    // A shard header round-trips machines and the spec.
    core::JournalHeader header{"t", "fft", "full", "exec_time",
                               {"target", "logp", "logpc"},
                               core::ShardSpec{1, 2}};
    writeJournal(path, header);
    std::ifstream in2(path);
    ASSERT_TRUE(std::getline(in2, line));
    core::JournalHeader decoded;
    ASSERT_TRUE(core::decodeHeader(line, decoded));
    EXPECT_EQ(decoded, header);
    EXPECT_EQ(decoded.shard.str(), "1/2");
}

TEST(Journal, LoadSkipsTornTrailingWrite)
{
    const std::string path = testing::TempDir() + "absim_torn.jsonl";
    const core::JournalHeader header{"t", "fft", "full", "exec_time"};
    writeJournal(path, header, {{4, false, {1.5, 2.5, 3.5}, "", "", ""}});
    {
        // Simulate a crash mid-write: a truncated trailing line.
        std::ofstream out(path, std::ios::app);
        out << "{\"procs\":8,\"target\":9";
    }
    std::vector<core::JournalRecord> records;
    ASSERT_TRUE(core::loadJournal(path, header, records));
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].procs, 4u);
}

TEST(Journal, LoadReportsTornTailAndResumeTruncatesIt)
{
    const std::string path = testing::TempDir() + "absim_tear.jsonl";
    const core::JournalHeader header{"t", "fft", "full", "exec_time"};
    writeJournal(path, header, {{4, false, {1.5, 2.5, 3.5}, "", "", ""}});

    std::uint64_t intact = 0;
    {
        std::ifstream in(path, std::ios::binary | std::ios::ate);
        intact = static_cast<std::uint64_t>(in.tellg());
    }
    {
        std::ofstream out(path, std::ios::app | std::ios::binary);
        out << "{\"procs\":8,\"target\":9";
    }

    std::vector<core::JournalRecord> records;
    core::JournalResume info;
    ASSERT_TRUE(core::loadJournal(path, header,
                                  core::defaultJournalColumns(), records,
                                  &info));
    ASSERT_EQ(records.size(), 1u);
    EXPECT_TRUE(info.tornTail);
    EXPECT_EQ(info.cleanBytes, intact);

    // Resume welds nothing onto the tear: the writer truncates to the
    // clean prefix before appending.
    core::JournalWriter writer;
    ASSERT_TRUE(writer.resume(path, info.cleanBytes));
    writer.append({8, false, {4.5, 5.5, 6.5}, "", "", ""});
    writer.close();

    records.clear();
    ASSERT_TRUE(core::loadJournal(path, header,
                                  core::defaultJournalColumns(), records,
                                  &info));
    ASSERT_EQ(records.size(), 2u);
    EXPECT_FALSE(info.tornTail);
    EXPECT_EQ(records[1].procs, 8u);
}

TEST(Journal, UnterminatedFinalRecordIsTornEvenIfParseable)
{
    const std::string path = testing::TempDir() + "absim_noeol.jsonl";
    const core::JournalHeader header{"t", "fft", "full", "exec_time"};
    writeJournal(path, header,
                 {{4, false, {1.0, 2.0, 3.0}, "", "", ""},
                  {8, false, {4.0, 5.0, 6.0}, "", "", ""}});

    // Chop the final newline: the last record still parses, but without
    // its terminator it may be half of a longer write — drop it.
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        bytes = buf.str();
    }
    ASSERT_EQ(bytes.back(), '\n');
    {
        std::ofstream out(path, std::ios::trunc | std::ios::binary);
        out << bytes.substr(0, bytes.size() - 1);
    }

    std::vector<core::JournalRecord> records;
    core::JournalResume info;
    ASSERT_TRUE(core::loadJournal(path, header,
                                  core::defaultJournalColumns(), records,
                                  &info));
    ASSERT_EQ(records.size(), 1u);
    EXPECT_TRUE(info.tornTail);
    EXPECT_LT(info.cleanBytes, bytes.size());
}

TEST(Journal, OverLongLineIsATornTailNotAnAllocation)
{
    const std::string path = testing::TempDir() + "absim_long.jsonl";
    const core::JournalHeader header{"t", "fft", "full", "exec_time"};
    writeJournal(path, header, {{4, false, {1.0, 2.0, 3.0}, "", "", ""}});
    std::uint64_t intact = 0;
    {
        std::ifstream in(path, std::ios::binary | std::ios::ate);
        intact = static_cast<std::uint64_t>(in.tellg());
    }
    {
        // A newline-free line one byte over the cap.
        std::ofstream out(path, std::ios::app | std::ios::binary);
        out << std::string(core::kMaxJournalLineBytes + 1, 'x');
    }
    std::vector<core::JournalRecord> records;
    core::JournalResume info;
    ASSERT_TRUE(core::loadJournal(path, header,
                                  core::defaultJournalColumns(), records,
                                  &info));
    ASSERT_EQ(records.size(), 1u);
    EXPECT_TRUE(info.tornTail);
    EXPECT_EQ(info.cleanBytes, intact);
}

TEST(Journal, HeaderMismatchIgnoresJournal)
{
    const std::string path = testing::TempDir() + "absim_header.jsonl";
    writeJournal(path, {"t", "fft", "full", "exec_time"},
                 {{4, false, {1.0, 2.0, 3.0}, "", "", ""}});
    std::vector<core::JournalRecord> records;
    EXPECT_FALSE(core::loadJournal(
        path, {"t", "cg", "full", "exec_time"}, records));
    EXPECT_TRUE(records.empty());
    EXPECT_FALSE(core::loadJournal(path + ".does-not-exist",
                                   {"t", "fft", "full", "exec_time"},
                                   records));
}

// ---- The resilient sweep as a drop-in for the raw sweep ----------------

namespace {

core::RunConfig
smallConfig()
{
    core::RunConfig base;
    base.app = "is";
    base.params.n = 256;
    return base;
}

} // namespace

TEST(SweepSafe, MatchesRawSweepWhenNothingFails)
{
    const core::RunConfig base = smallConfig();
    const auto raw = core::sweepFigure("t", base, net::TopologyKind::Full,
                                       core::Metric::ExecTime, {1, 2});
    const auto safe =
        core::sweepFigureSafe("t", base, net::TopologyKind::Full,
                              core::Metric::ExecTime, {1, 2}, {});
    EXPECT_TRUE(safe.complete());
    ASSERT_EQ(safe.figure.points.size(), raw.points.size());
    for (std::size_t i = 0; i < raw.points.size(); ++i) {
        EXPECT_EQ(safe.figure.points[i].procs, raw.points[i].procs);
        EXPECT_EQ(safe.figure.points[i].values, raw.points[i].values);
    }
}

TEST(SweepSafe, InterruptedSweepResumesByteIdentical)
{
    const core::RunConfig base = smallConfig();
    const std::string path = testing::TempDir() + "absim_resume.jsonl";
    std::remove(path.c_str());
    core::SweepOptions options;
    options.journalPath = path;

    // Full run, journaling every point.
    const auto full = core::sweepFigureSafe(
        "resume", base, net::TopologyKind::Full, core::Metric::ExecTime,
        {1, 2, 4}, options);
    ASSERT_TRUE(full.complete());
    std::ostringstream json_full;
    core::writeFigureJson(json_full, full);

    // Simulate a SIGKILL after the first completed point: keep the
    // journal's header and first record, drop the rest.
    std::vector<std::string> lines;
    {
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), 4u); // Header + three points.
    {
        std::ofstream out(path, std::ios::trunc);
        out << lines[0] << "\n" << lines[1] << "\n";
    }

    // Re-run: points 2 and 4 are recomputed, point 1 is replayed.
    const auto resumed = core::sweepFigureSafe(
        "resume", base, net::TopologyKind::Full, core::Metric::ExecTime,
        {1, 2, 4}, options);
    ASSERT_TRUE(resumed.complete());
    std::ostringstream json_resumed;
    core::writeFigureJson(json_resumed, resumed);

    EXPECT_EQ(json_full.str(), json_resumed.str());

    // Another run resumes everything without recomputing: the journal
    // now holds all three points again.
    std::vector<core::JournalRecord> records;
    ASSERT_TRUE(core::loadJournal(
        path, {"resume", base.app, "full", "exec_time"}, records));
    EXPECT_EQ(records.size(), 3u);
}

TEST(SweepSafe, TornTailResumesByteIdentical)
{
    const core::RunConfig base = smallConfig();
    const std::string path = testing::TempDir() + "absim_tear_resume.jsonl";
    std::remove(path.c_str());
    core::SweepOptions options;
    options.journalPath = path;

    const auto full = core::sweepFigureSafe(
        "tear", base, net::TopologyKind::Full, core::Metric::ExecTime,
        {1, 2, 4}, options);
    ASSERT_TRUE(full.complete());
    std::ostringstream json_full;
    core::writeFigureJson(json_full, full);
    std::string journal_full;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        journal_full = buf.str();
    }

    // Simulate a crash mid-write of the last record: cut into the
    // middle of its line, leaving no trailing newline.
    {
        std::ofstream out(path, std::ios::trunc | std::ios::binary);
        out << journal_full.substr(0, journal_full.size() - 7);
    }

    const auto resumed = core::sweepFigureSafe(
        "tear", base, net::TopologyKind::Full, core::Metric::ExecTime,
        {1, 2, 4}, options);
    ASSERT_TRUE(resumed.complete());
    std::ostringstream json_resumed;
    core::writeFigureJson(json_resumed, resumed);
    EXPECT_EQ(json_full.str(), json_resumed.str());

    // The resumed journal truncated the tear and rewrote the record:
    // byte-identical to the uninterrupted journal, no torn tail left.
    std::string journal_resumed;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        journal_resumed = buf.str();
    }
    EXPECT_EQ(journal_resumed, journal_full);
}

TEST(SweepSafe, MismatchedJournalIsRewrittenNotTrusted)
{
    const core::RunConfig base = smallConfig();
    const std::string path = testing::TempDir() + "absim_stale.jsonl";
    // A journal from a different figure, with a bogus cached point that
    // must NOT leak into this sweep.
    writeJournal(path, {"other", "fft", "cube", "latency"},
                 {{1, false, {999.0, 999.0, 999.0}, "", "", ""}});

    core::SweepOptions options;
    options.journalPath = path;
    const auto result = core::sweepFigureSafe(
        "stale", base, net::TopologyKind::Full, core::Metric::ExecTime,
        {1}, options);
    ASSERT_TRUE(result.complete());
    ASSERT_EQ(result.figure.points.size(), 1u);
    EXPECT_NE(result.figure.points[0].values[0], 999.0);

    // The stale journal was replaced by this sweep's own.
    std::vector<core::JournalRecord> records;
    ASSERT_TRUE(core::loadJournal(
        path, {"stale", base.app, "full", "exec_time"}, records));
    ASSERT_EQ(records.size(), 1u);
}

// ---- Shard-journal merge ----------------------------------------------

namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Write a shard journal: header + one single-column record per line. */
std::string
writeShard(const std::string &name, const core::JournalHeader &header,
           const std::vector<core::JournalRecord> &records,
           const std::vector<std::string> &record_columns)
{
    const std::string path = testing::TempDir() + name;
    core::JournalWriter writer;
    EXPECT_TRUE(writer.start(path, header));
    for (std::size_t i = 0; i < records.size(); ++i)
        writer.append(records[i],
                      records[i].failed
                          ? core::defaultJournalColumns()
                          : std::vector<std::string>{record_columns[i]});
    writer.close();
    return path;
}

/** A one-machine sweep header ("m1") stamped for shard K/N. */
core::JournalHeader
oneColumnHeader(std::uint32_t index, std::uint32_t count)
{
    return {"t",   "fft", "full", "exec_time",
            {"m1"}, core::ShardSpec{index, count}};
}

} // namespace

TEST(JournalMerge, ReassemblesSerialJournalBytes)
{
    // One machine, points P = 1,2,4,8 split across two shards.
    const std::string s0 = writeShard(
        "absim_merge_s0.jsonl", oneColumnHeader(0, 2),
        {{1, false, {0.5}, "", "", ""}, {4, false, {1.5}, "", "", ""}},
        {"m1", "m1"});
    const std::string s1 = writeShard(
        "absim_merge_s1.jsonl", oneColumnHeader(1, 2),
        {{2, false, {1.0}, "", "", ""}, {8, false, {2.0}, "", "", ""}},
        {"m1", "m1"});

    // Shard order on the command line must not matter.
    const core::MergeResult merge = core::mergeJournals({s1, s0});
    ASSERT_TRUE(merge.ok()) << (merge.errors.empty()
                                    ? ""
                                    : merge.errors[0]);
    EXPECT_TRUE(merge.warnings.empty());
    ASSERT_EQ(merge.records.size(), 4u);
    EXPECT_EQ(merge.records[0].procs, 1u);
    EXPECT_EQ(merge.records[3].procs, 8u);
    EXPECT_FALSE(merge.header.shard.sharded());

    const std::string merged_path =
        testing::TempDir() + "absim_merge_out.jsonl";
    ASSERT_TRUE(core::writeMergedJournal(merged_path, merge));

    // The serial sweep would have journaled the same bytes.
    const std::string serial_path =
        testing::TempDir() + "absim_merge_serial.jsonl";
    core::JournalHeader serial = oneColumnHeader(0, 1);
    serial.shard = {};
    writeJournal(serial_path, serial,
                 {{1, false, {0.5}, "", "", ""},
                  {2, false, {1.0}, "", "", ""},
                  {4, false, {1.5}, "", "", ""},
                  {8, false, {2.0}, "", "", ""}},
                 {"m1"});
    EXPECT_EQ(slurp(merged_path), slurp(serial_path));
}

TEST(JournalMerge, ClassicTrioMergeRestoresLegacyHeader)
{
    // The classic trio, points P = 2,4: six items interleaved mod 2.
    const std::vector<std::string> trio = core::defaultJournalColumns();
    core::JournalHeader h0{"t", "is", "full", "exec_time", trio,
                           core::ShardSpec{0, 2}};
    core::JournalHeader h1{"t", "is", "full", "exec_time", trio,
                           core::ShardSpec{1, 2}};
    const std::string s0 = writeShard(
        "absim_trio_s0.jsonl", h0,
        {{2, false, {1.0}, "", "", ""}, {2, false, {3.0}, "", "", ""},
         {4, false, {5.0}, "", "", ""}},
        {"target", "logpc", "logp"});
    const std::string s1 = writeShard(
        "absim_trio_s1.jsonl", h1,
        {{2, false, {2.0}, "", "", ""}, {4, false, {4.0}, "", "", ""},
         {4, false, {6.0}, "", "", ""}},
        {"logp", "target", "logpc"});

    const core::MergeResult merge = core::mergeJournals({s0, s1});
    ASSERT_TRUE(merge.ok()) << (merge.errors.empty()
                                    ? ""
                                    : merge.errors[0]);
    const std::string merged_path =
        testing::TempDir() + "absim_trio_out.jsonl";
    ASSERT_TRUE(core::writeMergedJournal(merged_path, merge));

    const std::string serial_path =
        testing::TempDir() + "absim_trio_serial.jsonl";
    writeJournal(serial_path, {"t", "is", "full", "exec_time"},
                 {{2, false, {1.0, 2.0, 3.0}, "", "", ""},
                  {4, false, {4.0, 5.0, 6.0}, "", "", ""}});
    EXPECT_EQ(slurp(merged_path), slurp(serial_path));
}

TEST(JournalMerge, ReproducesSerialFailureRecordLayout)
{
    const std::string s0 = writeShard(
        "absim_fail_s0.jsonl", oneColumnHeader(0, 2),
        {{1, false, {0.5}, "", "", ""},
         {4, true, {}, "logp", "Deadlock", "stuck"}},
        {"m1", "m1"});
    const std::string s1 = writeShard("absim_fail_s1.jsonl",
                                      oneColumnHeader(1, 2),
                                      {{2, false, {1.0}, "", "", ""}},
                                      {"m1"});

    const core::MergeResult merge = core::mergeJournals({s0, s1});
    ASSERT_TRUE(merge.ok()) << (merge.errors.empty()
                                    ? ""
                                    : merge.errors[0]);
    ASSERT_EQ(merge.records.size(), 3u);
    EXPECT_TRUE(merge.records[2].failed);
    EXPECT_EQ(merge.records[2].machine, "logp");
    EXPECT_EQ(merge.records[2].error, "Deadlock");
}

TEST(JournalMerge, RejectsMismatchedHeaders)
{
    core::JournalHeader other = oneColumnHeader(1, 2);
    other.app = "cg";
    const std::string s0 = writeShard("absim_mm_s0.jsonl",
                                      oneColumnHeader(0, 2),
                                      {{1, false, {0.5}, "", "", ""}},
                                      {"m1"});
    const std::string s1 = writeShard("absim_mm_s1.jsonl", other,
                                      {{2, false, {1.0}, "", "", ""}},
                                      {"m1"});
    const core::MergeResult merge = core::mergeJournals({s0, s1});
    ASSERT_FALSE(merge.ok());
    EXPECT_NE(merge.errors[0].find("shard-header-mismatch"),
              std::string::npos)
        << merge.errors[0];
}

TEST(JournalMerge, RejectsWrongShardCountAndDuplicateIndex)
{
    const std::string s0 = writeShard("absim_cnt_s0.jsonl",
                                      oneColumnHeader(0, 2),
                                      {{1, false, {0.5}, "", "", ""}},
                                      {"m1"});
    const core::MergeResult alone = core::mergeJournals({s0});
    ASSERT_FALSE(alone.ok());
    EXPECT_NE(alone.errors[0].find("shard-count-mismatch"),
              std::string::npos)
        << alone.errors[0];

    const core::MergeResult twice = core::mergeJournals({s0, s0});
    ASSERT_FALSE(twice.ok());
    EXPECT_NE(twice.errors[0].find("shard-duplicate-index"),
              std::string::npos)
        << twice.errors[0];
}

TEST(JournalMerge, DetectsGapInShortShard)
{
    // Shard 1 reached item 3 but shard 0 only recorded item 0: item 2
    // is missing — shard 0 must be rerun, not papered over.
    const std::string s0 = writeShard("absim_gap_s0.jsonl",
                                      oneColumnHeader(0, 2),
                                      {{1, false, {0.5}, "", "", ""}},
                                      {"m1"});
    const std::string s1 = writeShard(
        "absim_gap_s1.jsonl", oneColumnHeader(1, 2),
        {{2, false, {1.0}, "", "", ""}, {8, false, {2.0}, "", "", ""}},
        {"m1", "m1"});
    const core::MergeResult merge = core::mergeJournals({s0, s1});
    ASSERT_FALSE(merge.ok());
    EXPECT_NE(merge.errors[0].find("merge-gap"), std::string::npos)
        << merge.errors[0];
    EXPECT_TRUE(merge.records.empty());
}

TEST(JournalMerge, DetectsDuplicatedRecord)
{
    // A duplicated line in a one-machine shard still *parses* at every
    // position — only the (procs, machine) seen-set can catch it.
    const std::string s0 = writeShard(
        "absim_dup_s0.jsonl", oneColumnHeader(0, 2),
        {{1, false, {0.5}, "", "", ""}, {4, false, {1.5}, "", "", ""},
         {4, false, {1.5}, "", "", ""}},
        {"m1", "m1", "m1"});
    const std::string s1 = writeShard(
        "absim_dup_s1.jsonl", oneColumnHeader(1, 2),
        {{2, false, {1.0}, "", "", ""}, {8, false, {2.0}, "", "", ""}},
        {"m1", "m1"});
    const core::MergeResult merge = core::mergeJournals({s0, s1});
    ASSERT_FALSE(merge.ok());
    EXPECT_NE(merge.errors[0].find("merge-duplicate"), std::string::npos)
        << merge.errors[0];
}

TEST(JournalMerge, DetectsProcsMismatchAcrossShards)
{
    // Two machines, one point: the shards disagree on what P the point
    // sweeps — they came from different grids.
    core::JournalHeader h0{"t", "fft", "full", "exec_time",
                           {"m1", "m2"}, core::ShardSpec{0, 2}};
    core::JournalHeader h1{"t", "fft", "full", "exec_time",
                           {"m1", "m2"}, core::ShardSpec{1, 2}};
    const std::string s0 = writeShard("absim_pm_s0.jsonl", h0,
                                      {{1, false, {0.5}, "", "", ""}},
                                      {"m1"});
    const std::string s1 = writeShard("absim_pm_s1.jsonl", h1,
                                      {{2, false, {1.0}, "", "", ""}},
                                      {"m2"});
    const core::MergeResult merge = core::mergeJournals({s0, s1});
    ASSERT_FALSE(merge.ok());
    EXPECT_NE(merge.errors[0].find("merge-procs-mismatch"),
              std::string::npos)
        << merge.errors[0];
}

TEST(JournalMerge, TornTailIsAWarningWhenNothingIsMissing)
{
    const std::string s0 = writeShard(
        "absim_warn_s0.jsonl", oneColumnHeader(0, 2),
        {{1, false, {0.5}, "", "", ""}, {4, false, {1.5}, "", "", ""}},
        {"m1", "m1"});
    const std::string s1 = writeShard(
        "absim_warn_s1.jsonl", oneColumnHeader(1, 2),
        {{2, false, {1.0}, "", "", ""}, {8, false, {2.0}, "", "", ""}},
        {"m1", "m1"});
    {
        // A crash left half a record beyond shard 0's complete set.
        std::ofstream out(s0, std::ios::app | std::ios::binary);
        out << "{\"procs\":16,\"m1\":9";
    }
    const core::MergeResult merge = core::mergeJournals({s0, s1});
    ASSERT_TRUE(merge.ok()) << (merge.errors.empty()
                                    ? ""
                                    : merge.errors[0]);
    ASSERT_EQ(merge.warnings.size(), 1u);
    EXPECT_NE(merge.warnings[0].find("shard-torn-tail"),
              std::string::npos)
        << merge.warnings[0];
    EXPECT_EQ(merge.records.size(), 4u);
}

/** The first merge error, or "" when the merge succeeded. */
std::string
firstError(const core::MergeResult &merge)
{
    return merge.errors.empty() ? "" : merge.errors[0];
}

TEST(JournalMerge, NamesAShardWithoutAHeaderLine)
{
    const std::string s0 = testing::TempDir() + "absim_nohdr_s0.jsonl";
    std::ofstream(s0, std::ios::binary | std::ios::trunc)
        << "{\"absim_journal\":1"; // No terminating newline.
    const std::string s1 = writeShard("absim_nohdr_s1.jsonl",
                                      oneColumnHeader(1, 2),
                                      {{2, false, {1.0}, "", "", ""}},
                                      {"m1"});
    const core::MergeResult merge = core::mergeJournals({s0, s1});
    ASSERT_FALSE(merge.ok());
    EXPECT_NE(firstError(merge).find("shard-header-missing"),
              std::string::npos)
        << firstError(merge);
}

TEST(JournalMerge, NamesAMalformedHeaderLine)
{
    const std::string s0 = testing::TempDir() + "absim_badhdr_s0.jsonl";
    std::ofstream(s0, std::ios::binary | std::ios::trunc)
        << "not a journal header\n";
    const std::string s1 = writeShard("absim_badhdr_s1.jsonl",
                                      oneColumnHeader(1, 2),
                                      {{2, false, {1.0}, "", "", ""}},
                                      {"m1"});
    const core::MergeResult merge = core::mergeJournals({s0, s1});
    ASSERT_FALSE(merge.ok());
    EXPECT_NE(firstError(merge).find("shard-header-malformed"),
              std::string::npos)
        << firstError(merge);
}

TEST(JournalMerge, NamesAnOverLongLine)
{
    const std::string s0 = writeShard("absim_long_s0.jsonl",
                                      oneColumnHeader(0, 2),
                                      {{1, false, {0.5}, "", "", ""}},
                                      {"m1"});
    {
        // A newline-free line one byte over the cap.
        std::ofstream out(s0, std::ios::app | std::ios::binary);
        out << std::string(core::kMaxJournalLineBytes + 1, 'x');
    }
    const std::string s1 = writeShard("absim_long_s1.jsonl",
                                      oneColumnHeader(1, 2),
                                      {{2, false, {1.0}, "", "", ""}},
                                      {"m1"});
    const core::MergeResult merge = core::mergeJournals({s0, s1});
    ASSERT_FALSE(merge.ok());
    EXPECT_NE(firstError(merge).find("shard-line-too-long"),
              std::string::npos)
        << firstError(merge);
}

TEST(JournalMerge, NamesAnIncompleteTrailingPoint)
{
    // Two machines, items 0..2 over two shards: the second point holds
    // m1's record but not m2's, and no shard has a gap.
    core::JournalHeader h0{"t", "fft", "full", "exec_time",
                           {"m1", "m2"}, core::ShardSpec{0, 2}};
    core::JournalHeader h1{"t", "fft", "full", "exec_time",
                           {"m1", "m2"}, core::ShardSpec{1, 2}};
    const std::string s0 = writeShard(
        "absim_inc_s0.jsonl", h0,
        {{1, false, {0.5}, "", "", ""}, {2, false, {1.5}, "", "", ""}},
        {"m1", "m1"});
    const std::string s1 = writeShard("absim_inc_s1.jsonl", h1,
                                      {{1, false, {1.0}, "", "", ""}},
                                      {"m2"});
    const core::MergeResult merge = core::mergeJournals({s0, s1});
    ASSERT_FALSE(merge.ok());
    EXPECT_NE(firstError(merge).find("merge-incomplete-point"),
              std::string::npos)
        << firstError(merge);
}

TEST(JournalMerge, NamesAMisplacedRecord)
{
    // Item 0 belongs to m1, but shard 0's first line carries m2.
    core::JournalHeader h0{"t", "fft", "full", "exec_time",
                           {"m1", "m2"}, core::ShardSpec{0, 2}};
    core::JournalHeader h1{"t", "fft", "full", "exec_time",
                           {"m1", "m2"}, core::ShardSpec{1, 2}};
    const std::string s0 = writeShard("absim_mis_s0.jsonl", h0,
                                      {{1, false, {0.5}, "", "", ""}},
                                      {"m2"});
    const std::string s1 = writeShard("absim_mis_s1.jsonl", h1,
                                      {{1, false, {1.0}, "", "", ""}},
                                      {"m2"});
    const core::MergeResult merge = core::mergeJournals({s0, s1});
    ASSERT_FALSE(merge.ok());
    EXPECT_NE(firstError(merge).find("merge-misplaced-record"),
              std::string::npos)
        << firstError(merge);
}

TEST(SweepSafe, FigureJsonIsWellFormedAndDeterministic)
{
    core::SweepResult result;
    result.figure.title = "fig \"X\"";
    result.figure.app = "fft";
    result.figure.points.push_back({2, {0.5, 1.0 / 3.0, 2.0}});
    result.failures.push_back({4, "logp", "Deadlock", "stuck"});
    std::ostringstream a;
    std::ostringstream b;
    core::writeFigureJson(a, result);
    core::writeFigureJson(b, result);
    EXPECT_EQ(a.str(), b.str());
    EXPECT_NE(a.str().find("\"title\":\"fig \\\"X\\\"\""),
              std::string::npos)
        << a.str();
    EXPECT_NE(a.str().find("\"complete\":false"), std::string::npos);
    EXPECT_NE(a.str().find(core::formatDouble(1.0 / 3.0)),
              std::string::npos)
        << a.str();
}

} // namespace
