#include "core/journal_merge.hh"

#include <fstream>
#include <optional>
#include <set>
#include <utility>

namespace absim::core {

namespace {

/** One shard journal, read raw: header + intact record lines. */
struct ShardFile
{
    std::string path;
    JournalHeader header;
    std::vector<std::string> lines;
};

std::string
quoted(const std::string &path)
{
    return "'" + path + "'";
}

/**
 * Read a shard journal's header and record lines.  A trailing line
 * missing its newline is dropped with a shard-torn-tail warning; whether
 * the drop matters surfaces later as a merge-gap against the other
 * shards.  A malformed terminated line is kept here and reported by the
 * merge as merge-record-malformed.
 */
bool
readShardFile(const std::string &path, ShardFile &out,
              std::vector<std::string> &errors,
              std::vector<std::string> &warnings)
{
    out.path = path;
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        errors.push_back("shard-unreadable: cannot open " + quoted(path));
        return false;
    }
    std::string line;
    if (!std::getline(in, line) || in.eof()) {
        errors.push_back("shard-header-missing: " + quoted(path) +
                         " has no terminated journal header line");
        return false;
    }
    if (!decodeHeader(line, out.header)) {
        errors.push_back("shard-header-malformed: " + quoted(path) +
                         " line 1 is not a journal header");
        return false;
    }
    while (std::getline(in, line)) {
        if (in.eof()) {
            warnings.push_back("shard-torn-tail: " + quoted(path) +
                               " ends in an unterminated record "
                               "(dropped)");
            break;
        }
        out.lines.push_back(line);
    }
    return true;
}

} // namespace

MergeResult
mergeJournals(const std::vector<std::string> &paths)
{
    MergeResult result;
    std::vector<std::string> &errors = result.errors;
    if (paths.empty()) {
        errors.push_back("shard-missing-index: no shard journals given");
        return result;
    }
    const std::uint32_t count = static_cast<std::uint32_t>(paths.size());

    // Read every journal and place it at its header-stamped index.
    std::vector<std::optional<ShardFile>> shards(count);
    for (const std::string &path : paths) {
        ShardFile file;
        if (!readShardFile(path, file, errors, result.warnings))
            continue;
        const ShardSpec shard = file.header.shard;
        if (shard.count != count) {
            errors.push_back("shard-count-mismatch: " + quoted(path) +
                             " stamps shard " + shard.str() + " but " +
                             std::to_string(count) +
                             " journal(s) were given");
            continue;
        }
        if (!shard.valid()) {
            errors.push_back("shard-count-mismatch: " + quoted(path) +
                             " stamps invalid shard spec " + shard.str());
            continue;
        }
        if (shards[shard.index]) {
            errors.push_back("shard-duplicate-index: shard " +
                             shard.str() + " appears in both " +
                             quoted(shards[shard.index]->path) + " and " +
                             quoted(path));
            continue;
        }
        shards[shard.index] = std::move(file);
    }
    for (std::uint32_t s = 0; s < count; ++s)
        if (!shards[s] && errors.empty())
            errors.push_back("shard-missing-index: no journal stamps "
                             "shard " +
                             std::to_string(s) + "/" +
                             std::to_string(count));
    if (!errors.empty())
        return result;

    // All shards must identify the same sweep once the spec is stripped.
    JournalHeader canonical = shards[0]->header;
    canonical.shard = ShardSpec{};
    for (std::uint32_t s = 1; s < count; ++s) {
        JournalHeader stripped = shards[s]->header;
        stripped.shard = ShardSpec{};
        if (!(stripped == canonical))
            errors.push_back("shard-header-mismatch: " +
                             quoted(shards[s]->path) +
                             " belongs to a different sweep than " +
                             quoted(shards[0]->path));
    }
    if (!errors.empty())
        return result;

    result.columns = canonical.machines.empty() ? defaultJournalColumns()
                                                : canonical.machines;
    const std::size_t machine_count = result.columns.size();

    // Serial journals stamp the machine list only for non-default sets;
    // restore that layout so the merged bytes match the serial sweep's.
    if (canonical.machines == defaultJournalColumns())
        canonical.machines.clear();
    result.header = canonical;

    // Shard s holds items s, s+N, s+2N, ... in order, so the furthest
    // item any shard recorded pins the total and every other shard's
    // expected record count.  A shard that stopped short has a gap.
    std::uint64_t total = 0;
    for (std::uint32_t s = 0; s < count; ++s)
        if (!shards[s]->lines.empty())
            total = std::max(
                total, s +
                           (static_cast<std::uint64_t>(
                                shards[s]->lines.size()) -
                            1) *
                               count +
                           1);
    for (std::uint32_t s = 0; s < count; ++s) {
        const std::uint64_t expected =
            s < total ? (total - s + count - 1) / count : 0;
        if (shards[s]->lines.size() < expected)
            errors.push_back(
                "merge-gap: shard " + std::to_string(s) + "/" +
                std::to_string(count) + " (" + quoted(shards[s]->path) +
                ") holds " + std::to_string(shards[s]->lines.size()) +
                " of " + std::to_string(expected) +
                " records — rerun that shard to completion");
    }
    if (total % machine_count != 0)
        errors.push_back("merge-incomplete-point: the trailing point "
                         "has " +
                         std::to_string(total % machine_count) + " of " +
                         std::to_string(machine_count) +
                         " machine records");
    if (!errors.empty())
        return result;

    // Decode every record into its row-major (point, machine) slot.
    const std::uint64_t points = total / machine_count;
    std::vector<std::vector<JournalRecord>> grid(
        points, std::vector<JournalRecord>(machine_count));
    // Duplicate detection: each (procs, machine) item resolves once.
    std::set<std::pair<std::uint64_t, std::string>> seen;
    for (std::uint32_t s = 0; s < count; ++s) {
        const ShardFile &file = *shards[s];
        for (std::size_t r = 0; r < file.lines.size(); ++r) {
            const std::uint64_t item =
                s + static_cast<std::uint64_t>(r) * count;
            const std::size_t mi = item % machine_count;
            const std::string &line = file.lines[r];
            JournalRecord record;
            std::string key = result.columns[mi];
            if (!decodeRecord(line, record, {result.columns[mi]})) {
                // Not this item's machine: either a record that drifted
                // out of place (e.g. a duplicated line shifting the
                // tail) or plain corruption.
                bool misplaced = false;
                for (std::size_t other = 0;
                     other < machine_count && !misplaced; ++other) {
                    if (other == mi)
                        continue;
                    if (decodeRecord(line, record,
                                     {result.columns[other]})) {
                        misplaced = true;
                        key = result.columns[other];
                    }
                }
                if (!misplaced) {
                    errors.push_back("merge-record-malformed: " +
                                     quoted(file.path) + " line " +
                                     std::to_string(r + 2) +
                                     " does not parse");
                    continue;
                }
                errors.push_back(
                    "merge-misplaced-record: " + quoted(file.path) +
                    " line " + std::to_string(r + 2) + " carries '" +
                    key + "' where item " + std::to_string(item) +
                    " expects '" + result.columns[mi] + "'");
            }
            if (record.failed)
                key = "fail:" + record.machine;
            if (!seen.insert({record.procs, key}).second)
                errors.push_back(
                    "merge-duplicate: " + quoted(file.path) + " line " +
                    std::to_string(r + 2) + " records procs=" +
                    std::to_string(record.procs) + " '" + key +
                    "' a second time");
            grid[item / machine_count][mi] = std::move(record);
        }
    }
    if (!errors.empty())
        return result;

    // Reassemble the serial per-point layout.
    result.records.reserve(points);
    for (std::uint64_t p = 0; p < points; ++p) {
        const std::uint32_t procs = grid[p][0].procs;
        for (const JournalRecord &item : grid[p])
            if (item.procs != procs)
                errors.push_back(
                    "merge-procs-mismatch: point " + std::to_string(p) +
                    " records procs=" + std::to_string(procs) +
                    " and procs=" + std::to_string(item.procs) +
                    " — the shards swept different grids");
        for (JournalRecord &record : serialPointRecords(grid[p]))
            result.records.push_back(std::move(record));
    }
    if (!errors.empty())
        result.records.clear();
    return result;
}

bool
writeMergedJournal(const std::string &path, const MergeResult &merge)
{
    if (!merge.ok())
        return false;
    JournalWriter writer;
    if (!writer.start(path, merge.header))
        return false;
    for (const JournalRecord &record : merge.records)
        writer.append(record, merge.columns);
    writer.close();
    return true;
}

} // namespace absim::core
