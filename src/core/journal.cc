#include "core/journal.hh"

#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>

#include <unistd.h> // fsync, truncate

#include "core/env.hh"

namespace absim::core {

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
        "{\"absim_journal\":2,\"title\":\"" + jsonEscape(header.title) +
        "\",\"app\":\"" + jsonEscape(header.app) + "\",\"topology\":\"" +
        jsonEscape(header.topology) + "\",\"metric\":\"" +
        jsonEscape(header.metric) + "\",\"machines\":[";
    for (std::size_t i = 0; i < header.machines.size(); ++i) {
        if (i != 0)
            out += ',';
        out += '"';
        out += jsonEscape(header.machines[i]);
        out += '"';
    }
    return out + "],\"shard\":\"" + header.shard.str() + "\"}";
}

} // namespace

std::string
encodeRecord(const JournalRecord &record)
{
    std::string out = "{\"procs\":" + std::to_string(record.procs) +
                      ",\"machine\":\"" + jsonEscape(record.machine) + "\"";
    if (!record.failed)
        return out + ",\"value\":" + formatDouble(record.value) + "}";
    out += ",\"error\":\"" + jsonEscape(record.error) +
           "\",\"message\":\"" + jsonEscape(record.message) + "\"";
    // Only stamped when captured: journals written without trace sinks
    // carry no empty field.
    if (!record.trace.empty())
        out += ",\"trace\":\"" + jsonEscape(record.trace) + "\"";
    return out + "}";
}

bool
decodeRecord(const std::string &line, JournalRecord &out)
{
    json::Value doc;
    std::uint64_t procs = 0;
    out = JournalRecord{};
    if (!json::parse(line, doc) || !json::getUint(doc, "procs", procs) ||
        procs > std::numeric_limits<std::uint32_t>::max() ||
        !json::getString(doc, "machine", out.machine))
        return false;
    out.procs = static_cast<std::uint32_t>(procs);
    if (!json::getString(doc, "error", out.error))
        return json::getDouble(doc, "value", out.value);
    out.failed = true;
    // "trace" is optional (only captured failures carry it).
    (void)json::getString(doc, "trace", out.trace);
    return json::getString(doc, "message", out.message);
}

bool
decodeHeader(const std::string &line, JournalHeader &out)
{
    out = JournalHeader{};
    json::Value doc;
    std::uint64_t version = 0;
    std::string shard;
    if (!json::parse(line, doc) ||
        !json::getUint(doc, "absim_journal", version) || version != 2 ||
        !json::getString(doc, "title", out.title) ||
        !json::getString(doc, "app", out.app) ||
        !json::getString(doc, "topology", out.topology) ||
        !json::getString(doc, "metric", out.metric) ||
        !json::getString(doc, "shard", shard) ||
        !ShardSpec::parse(shard, out.shard))
        return false;
    const json::Value *machines = doc.find("machines");
    if (machines == nullptr || machines->type != json::Type::Array ||
        machines->items.empty())
        return false;
    for (const json::Value &name : machines->items) {
        if (!name.isString())
            return false;
        out.machines.push_back(name.text);
    }
    return true;
}

LinesEnd
readJournalLines(
    const std::string &path,
    const std::function<bool(const std::string &line, bool terminated)>
        &onLine)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return LinesEnd::Unopened;
    // Capped reads: a line longer than kMaxJournalLineBytes fails the
    // read without its eof bit, and is never held whole.
    const std::unique_ptr<char[]> buf(new char[kMaxJournalLineBytes + 1]);
    std::string line;
    while (in.getline(buf.get(), kMaxJournalLineBytes + 1)) {
        const bool terminated = !in.eof();
        line.assign(buf.get(), static_cast<std::size_t>(in.gcount()) -
                                   (terminated ? 1 : 0));
        if (!onLine(line, terminated))
            return LinesEnd::Done;
    }
    return in.eof() ? LinesEnd::Done : LinesEnd::TooLong;
}

bool
loadJournal(const std::string &path, const JournalHeader &expect,
            std::vector<JournalRecord> &out, JournalResume *resume)
{
    out.clear();
    if (resume)
        *resume = JournalResume{};
    bool matched = false;
    bool torn = false;
    std::uint64_t bytes = 0;
    const LinesEnd end = readJournalLines(
        path, [&](const std::string &line, bool terminated) {
            if (bytes == 0) {
                // The header must be intact *and* newline-terminated; a
                // journal torn inside its header holds nothing usable.
                JournalHeader found;
                matched = terminated && decodeHeader(line, found) &&
                          found == expect;
                bytes = line.size() + 1;
                return matched;
            }
            // A final line that lost its newline is treated as torn even
            // if it parses: appending after it would weld two records
            // into one unreadable line.  The resume point is the last
            // intact record.
            JournalRecord record;
            if (!terminated || !decodeRecord(line, record)) {
                torn = true;
                return false;
            }
            bytes += line.size() + 1;
            out.push_back(std::move(record));
            return true;
        });
    if (!matched)
        return false;
    if (resume) {
        resume->tornTail = torn || end == LinesEnd::TooLong;
        resume->cleanBytes = bytes;
    }
    return true;
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
JournalWriter::append(const JournalRecord &record)
{
    appendLine(encodeRecord(record));
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
