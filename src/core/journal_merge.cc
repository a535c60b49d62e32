#include "core/journal_merge.hh"

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
 * merge as merge-record-malformed.  A line longer than
 * kMaxJournalLineBytes is a shard-line-too-long error.
 */
bool
readShardFile(const std::string &path, ShardFile &out,
              std::vector<std::string> &errors,
              std::vector<std::string> &warnings)
{
    out.path = path;
    std::size_t lines = 0;
    bool terminatedHeader = false;
    bool header = false;
    const LinesEnd end = readJournalLines(
        path, [&](const std::string &line, bool terminated) {
            if (++lines == 1) {
                terminatedHeader = terminated;
                header = terminated && decodeHeader(line, out.header);
                return header;
            }
            if (!terminated) {
                warnings.push_back("shard-torn-tail: " + quoted(path) +
                                   " ends in an unterminated record "
                                   "(dropped)");
                return false;
            }
            out.lines.push_back(line);
            return true;
        });
    if (end == LinesEnd::Unopened) {
        errors.push_back("shard-unreadable: cannot open " + quoted(path));
        return false;
    }
    if (end == LinesEnd::TooLong) {
        errors.push_back("shard-line-too-long: " + quoted(path) + " line " +
                         std::to_string(lines + 1) + " exceeds " +
                         std::to_string(kMaxJournalLineBytes) + " bytes");
        return false;
    }
    if (!terminatedHeader) {
        errors.push_back("shard-header-missing: " + quoted(path) +
                         " has no terminated journal header line");
        return false;
    }
    if (!header) {
        errors.push_back("shard-header-malformed: " + quoted(path) +
                         " line 1 is not a journal header");
        return false;
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

    // All shards must identify the same sweep once the spec is stripped;
    // the merge is the unsharded 0/1 journal.
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

    result.header = canonical;
    const std::vector<std::string> &machines = canonical.machines;
    const std::size_t machine_count = machines.size();

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

    // Decode every record into its row-major item slot.
    result.records.resize(total);
    // Duplicate detection: each (procs, machine) item resolves once.
    std::set<std::pair<std::uint64_t, std::string>> seen;
    for (std::uint32_t s = 0; s < count; ++s) {
        const ShardFile &file = *shards[s];
        for (std::size_t r = 0; r < file.lines.size(); ++r) {
            const std::uint64_t item =
                s + static_cast<std::uint64_t>(r) * count;
            const std::string where =
                quoted(file.path) + " line " + std::to_string(r + 2);
            JournalRecord &record = result.records[item];
            if (!decodeRecord(file.lines[r], record)) {
                errors.push_back("merge-record-malformed: " + where +
                                 " does not parse");
                continue;
            }
            // A record that drifted out of place, e.g. a duplicated
            // line shifting the tail.
            const std::string &expected = machines[item % machine_count];
            if (record.machine != expected)
                errors.push_back("merge-misplaced-record: " + where +
                                 " carries '" + record.machine +
                                 "' where item " + std::to_string(item) +
                                 " expects '" + expected + "'");
            if (!seen.insert({record.procs, record.machine}).second)
                errors.push_back("merge-duplicate: " + where +
                                 " records procs=" +
                                 std::to_string(record.procs) + " '" +
                                 record.machine + "' a second time");
        }
    }

    // Every item of a point must sweep the same P.
    const bool decoded = errors.empty();
    for (std::uint64_t first = 0; decoded && first < total;
         first += machine_count)
        for (std::uint64_t g = first + 1; g < first + machine_count; ++g)
            if (result.records[g].procs != result.records[first].procs)
                errors.push_back(
                    "merge-procs-mismatch: point " +
                    std::to_string(first / machine_count) +
                    " records procs=" +
                    std::to_string(result.records[first].procs) +
                    " and procs=" + std::to_string(result.records[g].procs) +
                    " — the shards swept different grids");
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
        writer.append(record);
    writer.close();
    return true;
}

} // namespace absim::core
