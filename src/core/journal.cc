#include "core/journal.hh"

#include <cstdio>
#include <fstream>
#include <limits>

#include <unistd.h> // fsync, truncate

#include "core/env.hh"

namespace absim::core {

const std::vector<std::string> &
defaultJournalColumns()
{
    static const std::vector<std::string> columns = {"target", "logp",
                                                     "logpc"};
    return columns;
}

unsigned
journalFsyncInterval()
{
    // Re-read per open (not cached): a long-lived service that opens
    // journals over its lifetime honors the environment it was started
    // with, and tests can vary the knob without process restarts.
    return static_cast<unsigned>(envUint(
        "ABSIM_FSYNC_INTERVAL", kJournalFsyncInterval, 1, 1u << 20));
}

std::string
ShardSpec::str() const
{
    return std::to_string(index) + "/" + std::to_string(count);
}

bool
ShardSpec::parse(const std::string &text, ShardSpec &out)
{
    const auto slash = text.find('/');
    if (slash == std::string::npos)
        return false;
    std::uint64_t k = 0;
    std::uint64_t n = 0;
    if (!parseUint(text.substr(0, slash).c_str(), k) ||
        !parseUint(text.substr(slash + 1).c_str(), n))
        return false;
    if (n < 1 || k >= n || n > std::numeric_limits<std::uint32_t>::max())
        return false;
    out.index = static_cast<std::uint32_t>(k);
    out.count = static_cast<std::uint32_t>(n);
    return true;
}

namespace {

std::string
encodeHeader(const JournalHeader &header)
{
    std::string out =
        "{\"absim_journal\":1,\"title\":\"" + jsonEscape(header.title) +
        "\",\"app\":\"" + jsonEscape(header.app) + "\",\"topology\":\"" +
        jsonEscape(header.topology) + "\",\"metric\":\"" +
        jsonEscape(header.metric) + "\"";
    // The classic trio keeps the legacy header line (no machine list)
    // so pre-existing journals remain resumable byte-for-byte.
    if (!header.machines.empty()) {
        out += ",\"machines\":[";
        for (std::size_t i = 0; i < header.machines.size(); ++i) {
            if (i != 0)
                out += ',';
            out += '"';
            out += jsonEscape(header.machines[i]);
            out += '"';
        }
        out += "]";
    }
    if (header.shard.sharded())
        out += ",\"shard\":\"" + header.shard.str() + "\"";
    return out + "}";
}

/**
 * The shared body of loadJournal/loadShardJournal: @p columnsFor yields
 * the column layout record r must decode against.
 */
template <typename ColumnsFor>
bool
loadJournalImpl(const std::string &path, const JournalHeader &expect,
                ColumnsFor &&columnsFor, std::vector<JournalRecord> &out,
                JournalResume *resume)
{
    out.clear();
    if (resume)
        *resume = JournalResume{};
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::string line;
    // The header must be intact *and* newline-terminated; a journal
    // torn inside its header holds nothing usable.
    if (!std::getline(in, line) || in.eof())
        return false;
    JournalHeader found;
    if (!decodeHeader(line, found) || !(found == expect))
        return false;
    std::uint64_t bytes = line.size() + 1;
    bool torn = false;
    while (std::getline(in, line)) {
        // A final line that lost its newline is treated as torn even if
        // it parses: appending after it would weld two records into one
        // unreadable line.  The resume point is the last intact record.
        const bool terminated = !in.eof();
        JournalRecord record;
        if (!terminated || !decodeRecord(line, record, columnsFor(out.size()))) {
            torn = true;
            break;
        }
        bytes += line.size() + 1;
        out.push_back(std::move(record));
    }
    if (resume) {
        resume->tornTail = torn;
        resume->cleanBytes = bytes;
    }
    return true;
}

} // namespace

std::string
encodeRecord(const JournalRecord &record,
             const std::vector<std::string> &columns)
{
    std::string out = "{\"procs\":" + std::to_string(record.procs);
    if (record.failed) {
        out += ",\"machine\":\"" + jsonEscape(record.machine) +
               "\",\"error\":\"" + jsonEscape(record.error) +
               "\",\"message\":\"" + jsonEscape(record.message) + "\"";
        // Only stamped when captured: journals written without trace
        // sinks keep their historical bytes.
        if (!record.trace.empty())
            out += ",\"trace\":\"" + jsonEscape(record.trace) + "\"";
    } else {
        for (std::size_t i = 0; i < columns.size(); ++i) {
            const double v =
                i < record.values.size() ? record.values[i] : 0.0;
            out += ",\"" + columns[i] + "\":" + formatDouble(v);
        }
    }
    return out + "}";
}

std::vector<JournalRecord>
serialPointRecords(std::span<const JournalRecord> items)
{
    std::vector<JournalRecord> out;
    for (const JournalRecord &item : items)
        if (item.failed)
            out.push_back(item);
    if (!out.empty() || items.empty())
        return out;
    JournalRecord point;
    point.procs = items.front().procs;
    point.values.reserve(items.size());
    for (const JournalRecord &item : items)
        point.values.push_back(item.values.empty() ? 0.0 : item.values[0]);
    out.push_back(std::move(point));
    return out;
}

bool
decodeRecord(const std::string &line, JournalRecord &out,
             const std::vector<std::string> &columns)
{
    json::Value doc;
    std::uint64_t procs = 0;
    if (!json::parse(line, doc) || !json::getUint(doc, "procs", procs) ||
        procs > std::numeric_limits<std::uint32_t>::max())
        return false;
    out = JournalRecord{};
    out.procs = static_cast<std::uint32_t>(procs);
    if (json::getString(doc, "error", out.error)) {
        out.failed = true;
        // "trace" is optional (only captured failures carry it).
        (void)json::getString(doc, "trace", out.trace);
        return json::getString(doc, "machine", out.machine) &&
               json::getString(doc, "message", out.message);
    }
    out.values.assign(columns.size(), 0.0);
    for (std::size_t i = 0; i < columns.size(); ++i)
        if (!json::getDouble(doc, columns[i], out.values[i]))
            return false;
    return true;
}

bool
decodeHeader(const std::string &line, JournalHeader &out)
{
    out = JournalHeader{};
    json::Value doc;
    std::uint64_t version = 0;
    if (!json::parse(line, doc) ||
        !json::getUint(doc, "absim_journal", version) || version != 1 ||
        !json::getString(doc, "title", out.title) ||
        !json::getString(doc, "app", out.app) ||
        !json::getString(doc, "topology", out.topology) ||
        !json::getString(doc, "metric", out.metric))
        return false;
    // "machines" is absent for the classic trio.
    if (const json::Value *machines = doc.find("machines")) {
        if (machines->type != json::Type::Array)
            return false;
        for (const json::Value &name : machines->items) {
            if (!name.isString())
                return false;
            out.machines.push_back(name.text);
        }
    }
    std::string shard;
    if (json::getString(doc, "shard", shard))
        return ShardSpec::parse(shard, out.shard);
    return true;
}

bool
loadJournal(const std::string &path, const JournalHeader &expect,
            const std::vector<std::string> &columns,
            std::vector<JournalRecord> &out, JournalResume *resume)
{
    return loadJournalImpl(
        path, expect,
        [&](std::size_t) -> const std::vector<std::string> & {
            return columns;
        },
        out, resume);
}

bool
loadJournal(const std::string &path, const JournalHeader &expect,
            std::vector<JournalRecord> &out)
{
    return loadJournal(path, expect, defaultJournalColumns(), out);
}

bool
loadShardJournal(const std::string &path, const JournalHeader &expect,
                 const std::vector<std::string> &columns,
                 std::vector<JournalRecord> &out, JournalResume *resume)
{
    out.clear();
    if (!expect.shard.valid() || columns.empty())
        return false;
    const ShardSpec shard = expect.shard;
    return loadJournalImpl(
        path, expect,
        [&](std::size_t r) -> std::vector<std::string> {
            // Record r covers row-major item index + r*count; its one
            // success column is that item's machine.
            const std::uint64_t item =
                shard.index + static_cast<std::uint64_t>(r) * shard.count;
            return {columns[item % columns.size()]};
        },
        out, resume);
}

bool
JournalWriter::start(const std::string &path, const JournalHeader &header,
                     unsigned fsyncEvery)
{
    return startLine(path, encodeHeader(header), fsyncEvery);
}

bool
JournalWriter::startLine(const std::string &path,
                         const std::string &headerLine, unsigned fsyncEvery)
{
    close();
    interval_ = fsyncEvery != 0 ? fsyncEvery : journalFsyncInterval();
    file_ = std::fopen(path.c_str(), "wb");
    if (file_ == nullptr)
        return false;
    const std::string line = headerLine + "\n";
    std::fwrite(line.data(), 1, line.size(), file_);
    std::fflush(file_);
    // The header is durable before the first record: a merge or resume
    // must never see records under a lost header.
    sync();
    return true;
}

bool
JournalWriter::resume(const std::string &path, std::uint64_t cleanBytes,
                      unsigned fsyncEvery)
{
    close();
    interval_ = fsyncEvery != 0 ? fsyncEvery : journalFsyncInterval();
    // Drop any torn tail before appending: writing after a record that
    // lost its newline would weld the two into one unreadable line.
    if (::truncate(path.c_str(), static_cast<off_t>(cleanBytes)) != 0)
        return false;
    file_ = std::fopen(path.c_str(), "ab");
    return file_ != nullptr;
}

void
JournalWriter::append(const JournalRecord &record,
                      const std::vector<std::string> &columns)
{
    appendLine(encodeRecord(record, columns));
}

void
JournalWriter::appendLine(const std::string &line)
{
    if (file_ == nullptr)
        return;
    std::fwrite(line.data(), 1, line.size(), file_);
    std::fwrite("\n", 1, 1, file_);
    std::fflush(file_);
    if (++sinceSync_ >= interval_)
        sync();
}

void
JournalWriter::sync()
{
    if (file_ != nullptr) {
        ::fsync(fileno(file_));
        sinceSync_ = 0;
    }
}

void
JournalWriter::close()
{
    if (file_ == nullptr)
        return;
    std::fflush(file_);
    sync();
    std::fclose(file_);
    file_ = nullptr;
}

} // namespace absim::core
