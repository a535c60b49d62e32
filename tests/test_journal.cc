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
#include <functional>
#include <sstream>
#include <string>

#include "core/figures.hh"
#include "core/journal.hh"
#include "core/journal_merge.hh"
#include "json/json.hh"
#include "machines/registry.hh"
#include "sim/rng.hh"

namespace {

using namespace absim;

/** Write @p path through a JournalWriter: @p header, then @p records. */
void
writeJournal(const std::string &path, const core::JournalHeader &header,
             const std::vector<core::JournalRecord> &records = {})
{
    core::JournalWriter writer;
    EXPECT_TRUE(writer.start(path, header));
    for (const core::JournalRecord &record : records)
        writer.append(record);
    writer.close();
}

/** The classic trio's machines, as a journal header names them. */
const std::vector<std::string> kTrio = {"target", "logp", "logp+c"};

/** A success record: @p machine's run at @p procs measured @p value. */
core::JournalRecord
item(std::uint32_t procs, const std::string &machine, double value)
{
    core::JournalRecord record;
    record.procs = procs;
    record.machine = machine;
    record.value = value;
    return record;
}

/** A failure record of @p machine's run at @p procs. */
core::JournalRecord
failedItem(std::uint32_t procs, const std::string &machine,
           const std::string &error, const std::string &message)
{
    core::JournalRecord record = item(procs, machine, 0.0);
    record.failed = true;
    record.error = error;
    record.message = message;
    return record;
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
    success.machine = "logp+c";
    success.value = 1.0 / 3.0;
    core::JournalRecord out;
    ASSERT_TRUE(core::decodeRecord(core::encodeRecord(success), out));
    EXPECT_EQ(core::encodeRecord(success),
              "{\"procs\":8,\"machine\":\"logp+c\",\"value\":" +
                  core::formatDouble(1.0 / 3.0) + "}");
    EXPECT_FALSE(out.failed);
    EXPECT_EQ(out.procs, 8u);
    EXPECT_EQ(out.machine, "logp+c");
    EXPECT_EQ(out.value, success.value);

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
    // A record names its item's machine, and a success its value.
    EXPECT_FALSE(core::decodeRecord("{\"procs\":8,\"value\":1.5}", out));
    EXPECT_FALSE(
        core::decodeRecord("{\"procs\":8,\"machine\":\"logp\"}", out));
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
        "{\"absim_journal\":2,\"title\":\"a\",\"app\":\"is\","
        "\"topology\":\"full\",\"metric\":\"exec\","
        "\"machines\":[\"target\"],\"shard\":\"0/1\",\"app\":\"ep\"}",
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

TEST(Journal, HeaderStampsMachinesAndShardSpec)
{
    const std::string path = testing::TempDir() + "absim_shard_hdr.jsonl";

    // The unsharded sweep is shard 0/1, and says so.
    writeJournal(path, {"t", "fft", "full", "exec_time", kTrio, {}});
    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line,
              "{\"absim_journal\":2,\"title\":\"t\",\"app\":\"fft\","
              "\"topology\":\"full\",\"metric\":\"exec_time\","
              "\"machines\":[\"target\",\"logp\",\"logp+c\"],"
              "\"shard\":\"0/1\"}");
    in.close();

    // A shard header round-trips machines and the spec.
    core::JournalHeader header{"t", "fft", "full", "exec_time", kTrio,
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
    const core::JournalHeader header{"t", "fft", "full", "exec_time",
                                     kTrio, {}};
    writeJournal(path, header, {item(4, "target", 1.5)});
    {
        // Simulate a crash mid-write: a truncated trailing line.
        std::ofstream out(path, std::ios::app);
        out << "{\"procs\":4,\"machine\":\"logp\",\"val";
    }
    std::vector<core::JournalRecord> records;
    ASSERT_TRUE(core::loadJournal(path, header, records));
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].procs, 4u);
}

TEST(Journal, LoadReportsTornTailAndResumeTruncatesIt)
{
    const std::string path = testing::TempDir() + "absim_tear.jsonl";
    const core::JournalHeader header{"t", "fft", "full", "exec_time",
                                     kTrio, {}};
    writeJournal(path, header, {item(4, "target", 1.5)});

    std::uint64_t intact = 0;
    {
        std::ifstream in(path, std::ios::binary | std::ios::ate);
        intact = static_cast<std::uint64_t>(in.tellg());
    }
    {
        std::ofstream out(path, std::ios::app | std::ios::binary);
        out << "{\"procs\":4,\"machine\":\"logp\",\"val";
    }

    std::vector<core::JournalRecord> records;
    core::JournalResume info;
    ASSERT_TRUE(core::loadJournal(path, header, records, &info));
    ASSERT_EQ(records.size(), 1u);
    EXPECT_TRUE(info.tornTail);
    EXPECT_EQ(info.cleanBytes, intact);

    // Resume welds nothing onto the tear: the writer truncates to the
    // clean prefix before appending.
    core::JournalWriter writer;
    ASSERT_TRUE(writer.resume(path, info.cleanBytes));
    writer.append(item(4, "logp", 4.5));
    writer.close();

    records.clear();
    ASSERT_TRUE(core::loadJournal(path, header, records, &info));
    ASSERT_EQ(records.size(), 2u);
    EXPECT_FALSE(info.tornTail);
    EXPECT_EQ(records[1].machine, "logp");
}

TEST(Journal, UnterminatedFinalRecordIsTornEvenIfParseable)
{
    const std::string path = testing::TempDir() + "absim_noeol.jsonl";
    const core::JournalHeader header{"t", "fft", "full", "exec_time",
                                     kTrio, {}};
    writeJournal(path, header,
                 {item(4, "target", 1.0), item(4, "logp", 2.0)});

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
    ASSERT_TRUE(core::loadJournal(path, header, records, &info));
    ASSERT_EQ(records.size(), 1u);
    EXPECT_TRUE(info.tornTail);
    EXPECT_LT(info.cleanBytes, bytes.size());
}

TEST(Journal, OverLongLineIsATornTailNotAnAllocation)
{
    const std::string path = testing::TempDir() + "absim_long.jsonl";
    const core::JournalHeader header{"t", "fft", "full", "exec_time",
                                     kTrio, {}};
    writeJournal(path, header, {item(4, "target", 1.0)});
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
    ASSERT_TRUE(core::loadJournal(path, header, records, &info));
    ASSERT_EQ(records.size(), 1u);
    EXPECT_TRUE(info.tornTail);
    EXPECT_EQ(info.cleanBytes, intact);
}

TEST(Journal, HeaderMismatchIgnoresJournal)
{
    const std::string path = testing::TempDir() + "absim_header.jsonl";
    writeJournal(path, {"t", "fft", "full", "exec_time", kTrio, {}},
                 {item(4, "target", 1.0)});
    std::vector<core::JournalRecord> records;
    EXPECT_FALSE(core::loadJournal(
        path, {"t", "cg", "full", "exec_time", kTrio, {}}, records));
    EXPECT_TRUE(records.empty());
    EXPECT_FALSE(core::loadJournal(
        path, {"t", "fft", "full", "exec_time", kTrio, {1, 2}}, records));
    EXPECT_FALSE(core::loadJournal(path + ".does-not-exist",
                                   {"t", "fft", "full", "exec_time", kTrio, {}},
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
    const auto safe =
        core::sweepFigureSafe("t", base, net::TopologyKind::Full,
                              core::Metric::ExecTime, {1, 2}, {});
    EXPECT_TRUE(safe.complete());
    ASSERT_EQ(safe.figure.points.size(), 2u);
    // Each point holds the raw runs' metric, in the classic machine
    // order.
    for (const core::SeriesPoint &point : safe.figure.points) {
        core::RunConfig config = base;
        config.procs = point.procs;
        std::vector<double> raw;
        for (const mach::MachineKind kind : mach::defaultFigureMachines()) {
            config.machine = kind;
            raw.push_back(core::metricValue(core::runOne(config),
                                            core::Metric::ExecTime));
        }
        EXPECT_EQ(point.values, raw) << "P=" << point.procs;
    }
    EXPECT_EQ(safe.figure.points[0].procs, 1u);
    EXPECT_EQ(safe.figure.points[1].procs, 2u);
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
    // journal's header and the point's three item records, drop the
    // rest.
    std::vector<std::string> lines;
    {
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), 10u); // Header + 3 points x 3 machines.
    {
        std::ofstream out(path, std::ios::trunc);
        for (std::size_t i = 0; i < 4; ++i)
            out << lines[i] << "\n";
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
        path, {"resume", base.app, "full", "exec_time", kTrio, {}}, records));
    EXPECT_EQ(records.size(), 9u);
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
    // Journals of another sweep, each with a bogus cached point that must
    // NOT leak into this sweep: a different figure, this sweep's header
    // over records whose machines are out of item order, and a format-1
    // journal (one record per point) under this sweep's own title.
    const std::vector<std::function<void()>> stale = {
        [&] {
            writeJournal(path, {"other", "fft", "cube", "latency", kTrio, {}},
                         {item(1, "target", 999.0),
                          item(1, "logp", 999.0),
                          item(1, "logp+c", 999.0)});
        },
        [&] {
            writeJournal(path, {"stale", "is", "full", "exec_time", kTrio, {}},
                         {item(1, "logp", 999.0),
                          item(1, "target", 999.0),
                          item(1, "logp+c", 999.0)});
        },
        [&] {
            std::ofstream(path, std::ios::binary | std::ios::trunc)
                << "{\"absim_journal\":1,\"title\":\"stale\","
                   "\"app\":\"is\",\"topology\":\"full\","
                   "\"metric\":\"exec_time\"}\n"
                   "{\"procs\":1,\"target\":999.0,\"logp\":999.0,"
                   "\"logpc\":999.0}\n";
        }};
    for (const std::function<void()> &writeStale : stale) {
        writeStale();
        core::SweepOptions options;
        options.journalPath = path;
        options.jobs = 4; // The pool's journal replaces the stale one too.
        const auto result = core::sweepFigureSafe(
            "stale", base, net::TopologyKind::Full, core::Metric::ExecTime,
            {1}, options);
        ASSERT_TRUE(result.complete());
        ASSERT_EQ(result.figure.points.size(), 1u);
        for (const double v : result.figure.points[0].values)
            EXPECT_NE(v, 999.0);

        // The stale journal was replaced by this sweep's own, format 2.
        std::ifstream in(path);
        std::string line;
        ASSERT_TRUE(std::getline(in, line));
        EXPECT_EQ(line.rfind("{\"absim_journal\":2,", 0), 0u) << line;
        std::vector<core::JournalRecord> records;
        ASSERT_TRUE(core::loadJournal(
            path, {"stale", base.app, "full", "exec_time", kTrio, {}},
            records));
        ASSERT_EQ(records.size(), 3u);
    }
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

/** Write a shard journal: header + one item record per line. */
std::string
writeShard(const std::string &name, const core::JournalHeader &header,
           const std::vector<core::JournalRecord> &records)
{
    const std::string path = testing::TempDir() + name;
    writeJournal(path, header, records);
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
        {item(1, "m1", 0.5), item(4, "m1", 1.5)});
    const std::string s1 = writeShard(
        "absim_merge_s1.jsonl", oneColumnHeader(1, 2),
        {item(2, "m1", 1.0), item(8, "m1", 2.0)});

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
    writeJournal(serial_path, oneColumnHeader(0, 1),
                 {item(1, "m1", 0.5),
                  item(2, "m1", 1.0),
                  item(4, "m1", 1.5),
                  item(8, "m1", 2.0)});
    EXPECT_EQ(slurp(merged_path), slurp(serial_path));
}

TEST(JournalMerge, ReproducesSerialFailureRecordLayout)
{
    const std::string s0 = writeShard(
        "absim_fail_s0.jsonl", oneColumnHeader(0, 2),
        {item(1, "m1", 0.5), failedItem(4, "m1", "Deadlock", "stuck")});
    const std::string s1 = writeShard("absim_fail_s1.jsonl",
                                      oneColumnHeader(1, 2),
                                      {item(2, "m1", 1.0)});

    const core::MergeResult merge = core::mergeJournals({s0, s1});
    ASSERT_TRUE(merge.ok()) << (merge.errors.empty()
                                    ? ""
                                    : merge.errors[0]);
    ASSERT_EQ(merge.records.size(), 3u);
    EXPECT_TRUE(merge.records[2].failed);
    EXPECT_EQ(merge.records[2].machine, "m1");
    EXPECT_EQ(merge.records[2].error, "Deadlock");
}

TEST(JournalMerge, RejectsMismatchedHeaders)
{
    core::JournalHeader other = oneColumnHeader(1, 2);
    other.app = "cg";
    const std::string s0 = writeShard("absim_mm_s0.jsonl",
                                      oneColumnHeader(0, 2),
                                      {item(1, "m1", 0.5)});
    const std::string s1 = writeShard("absim_mm_s1.jsonl", other,
                                      {item(2, "m1", 1.0)});
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
                                      {item(1, "m1", 0.5)});
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
                                      {item(1, "m1", 0.5)});
    const std::string s1 = writeShard(
        "absim_gap_s1.jsonl", oneColumnHeader(1, 2),
        {item(2, "m1", 1.0), item(8, "m1", 2.0)});
    const core::MergeResult merge = core::mergeJournals({s0, s1});
    ASSERT_FALSE(merge.ok());
    EXPECT_NE(merge.errors[0].find("merge-gap"), std::string::npos)
        << merge.errors[0];
    EXPECT_TRUE(merge.records.empty());
}

TEST(JournalMerge, DetectsDuplicatedRecord)
{
    // A duplicated line in a one-machine shard names the right machine
    // at every position — only the (procs, machine) seen-set catches it.
    const std::string s0 = writeShard(
        "absim_dup_s0.jsonl", oneColumnHeader(0, 2),
        {item(1, "m1", 0.5), item(4, "m1", 1.5), item(4, "m1", 1.5)});
    const std::string s1 = writeShard(
        "absim_dup_s1.jsonl", oneColumnHeader(1, 2),
        {item(2, "m1", 1.0), item(8, "m1", 2.0)});
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
                                      {item(1, "m1", 0.5)});
    const std::string s1 = writeShard("absim_pm_s1.jsonl", h1,
                                      {item(2, "m2", 1.0)});
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
        {item(1, "m1", 0.5), item(4, "m1", 1.5)});
    const std::string s1 = writeShard(
        "absim_warn_s1.jsonl", oneColumnHeader(1, 2),
        {item(2, "m1", 1.0), item(8, "m1", 2.0)});
    {
        // A crash left half a record beyond shard 0's complete set.
        std::ofstream out(s0, std::ios::app | std::ios::binary);
        out << "{\"procs\":16,\"machine\":\"m1\",\"val";
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
        << "{\"absim_journal\":2"; // No terminating newline.
    const std::string s1 = writeShard("absim_nohdr_s1.jsonl",
                                      oneColumnHeader(1, 2),
                                      {item(2, "m1", 1.0)});
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
                                      {item(2, "m1", 1.0)});
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
                                      {item(1, "m1", 0.5)});
    {
        // A newline-free line one byte over the cap.
        std::ofstream out(s0, std::ios::app | std::ios::binary);
        out << std::string(core::kMaxJournalLineBytes + 1, 'x');
    }
    const std::string s1 = writeShard("absim_long_s1.jsonl",
                                      oneColumnHeader(1, 2),
                                      {item(2, "m1", 1.0)});
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
        {item(1, "m1", 0.5), item(2, "m1", 1.5)});
    const std::string s1 = writeShard("absim_inc_s1.jsonl", h1,
                                      {item(1, "m2", 1.0)});
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
                                      {item(1, "m2", 0.5)});
    const std::string s1 = writeShard("absim_mis_s1.jsonl", h1,
                                      {item(1, "m2", 1.0)});
    const core::MergeResult merge = core::mergeJournals({s0, s1});
    ASSERT_FALSE(merge.ok());
    EXPECT_NE(firstError(merge).find("merge-misplaced-record"),
              std::string::npos)
        << firstError(merge);
}

namespace {

/** The lines of @p text, each without its newline; an unterminated tail
 *  is kept as a last line flagged by @p torn. */
std::vector<std::string>
splitLines(const std::string &text, bool &torn)
{
    std::vector<std::string> lines;
    std::size_t begin = 0;
    for (std::size_t end; (end = text.find('\n', begin)) != std::string::npos;
         begin = end + 1)
        lines.push_back(text.substr(begin, end - begin));
    torn = begin < text.size();
    if (torn)
        lines.push_back(text.substr(begin));
    return lines;
}

/** One seeded mutation of a journal's bytes: a byte flip, a truncation,
 *  or a dropped, duplicated or swapped line. */
std::string
mutateJournal(sim::Rng &rng, const std::string &journal)
{
    if (journal.empty())
        return journal;
    bool torn = false;
    std::vector<std::string> lines = splitLines(journal, torn);
    const auto pick = [&] {
        return static_cast<std::size_t>(rng.below(lines.size()));
    };
    switch (rng.below(5)) {
      case 0: {
        std::string out = journal;
        const auto at = static_cast<std::size_t>(rng.below(out.size()));
        out[at] = static_cast<char>(out[at] ^
                                    static_cast<char>(1u << rng.below(8)));
        return out;
      }
      case 1:
        return journal.substr(
            0, static_cast<std::size_t>(rng.below(journal.size())));
      case 2:
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(pick()));
        break;
      case 3: {
        const std::size_t at = pick();
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                     lines[at]);
        break;
      }
      default:
        std::swap(lines[pick()], lines[pick()]);
        break;
    }
    std::string out;
    for (std::size_t i = 0; i < lines.size(); ++i)
        out += lines[i] + (torn && i + 1 == lines.size() ? "" : "\n");
    return out;
}

} // namespace

TEST(JournalMerge, MutatedShardSetsFailWithNamedDiagnostics)
{
    // The 2- and 3-shard journals of a sweep with failures: a 100-event
    // budget fails IS n=512 on the target at P=1 and everywhere at P=2
    // and P=4.
    core::RunConfig base;
    base.app = "is";
    base.params.n = 512;
    core::SweepOptions options;
    options.policy.budget.maxEvents = 100;
    options.policy.maxAttempts = 1;
    options.jobs = 4; // Shard journals are identical for any job count.
    std::vector<std::vector<std::string>> sets;
    for (const std::uint32_t count : {2u, 3u}) {
        std::vector<std::string> journals;
        for (std::uint32_t index = 0; index < count; ++index) {
            options.shard = {index, count};
            options.journalPath = testing::TempDir() + "absim_mut_src.jsonl";
            std::remove(options.journalPath.c_str());
            (void)core::sweepFigureSafe("mutants", base,
                                        net::TopologyKind::Full,
                                        core::Metric::ExecTime, {1, 2, 4},
                                        options);
            journals.push_back(slurp(options.journalPath));
        }
        sets.push_back(std::move(journals));
    }

    // The 15 diagnostics journal_merge.hh names.
    static const char *const kNames[] = {
        "shard-unreadable",       "shard-header-missing",
        "shard-header-malformed", "shard-line-too-long",
        "shard-header-mismatch",  "shard-count-mismatch",
        "shard-duplicate-index",  "shard-missing-index",
        "shard-torn-tail",        "merge-record-malformed",
        "merge-misplaced-record", "merge-duplicate",
        "merge-procs-mismatch",   "merge-gap",
        "merge-incomplete-point"};
    const auto named = [&](const std::string &diagnostic) {
        for (const char *name : kNames)
            if (diagnostic.rfind(std::string(name) + ":", 0) == 0)
                return true;
        return false;
    };

    sim::Rng rng(0x6a6f75726e616cULL);
    int failed = 0;
    for (int m = 0; m < 300; ++m) {
        const std::vector<std::string> &set =
            sets[static_cast<std::size_t>(rng.below(sets.size()))];
        // Mutate one or two of the set's journals.
        std::vector<std::string> bytes = set;
        for (std::uint64_t e = 1 + rng.below(2); e > 0; --e) {
            std::string &target =
                bytes[static_cast<std::size_t>(rng.below(bytes.size()))];
            target = mutateJournal(rng, target);
        }
        std::vector<std::string> paths;
        for (std::size_t s = 0; s < bytes.size(); ++s) {
            paths.push_back(testing::TempDir() + "absim_mut_" +
                            std::to_string(s) + ".jsonl");
            std::ofstream(paths.back(), std::ios::binary | std::ios::trunc)
                << bytes[s];
        }
        core::MergeResult merge;
        ASSERT_NO_THROW(merge = core::mergeJournals(paths)) << m;
        for (const std::string &error : merge.errors)
            EXPECT_TRUE(named(error)) << "mutant " << m << ": " << error;
        for (const std::string &warning : merge.warnings)
            EXPECT_TRUE(named(warning)) << "mutant " << m << ": " << warning;
        failed += merge.ok() ? 0 : 1;
    }
    // Most mutants break the set; a flip inside a value may not.
    EXPECT_GT(failed, 150);
}

TEST(JournalMerge, NoJournalsIsShardMissingIndex)
{
    // journal_merge refuses an empty list before merging, so only the
    // library call reaches this diagnostic.
    const core::MergeResult merge = core::mergeJournals({});
    EXPECT_FALSE(merge.ok());
    ASSERT_EQ(merge.errors.size(), 1u);
    const std::string &error = merge.errors.front();
    EXPECT_EQ(error.substr(0, error.find(':')), "shard-missing-index")
        << error;
    EXPECT_TRUE(merge.warnings.empty());
    EXPECT_TRUE(merge.records.empty());
}

TEST(SweepSafe, FigureJsonIsWellFormedAndDeterministic)
{
    core::SweepResult result;
    result.figure.title = "fig \"X\"";
    result.figure.app = "fft";
    result.figure.points.push_back({2, {0.5, 1.0 / 3.0, 2.0}});
    result.failures.push_back({4, "logp", "Deadlock", "stuck", ""});
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
