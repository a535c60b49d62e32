/**
 * @file
 * Sweep checkpoint journal: crash-safe JSONL persistence for figure
 * sweeps.
 *
 * Each figure sweep appends one JSON line per successful point, or one
 * per failed machine run of a failed point, to a journal file, flushing
 * after every record and fsyncing periodically (see JournalWriter).
 * When a figure binary is re-run — after a crash, a SIGKILL, or an
 * interactive interrupt — the sweep reloads the journal, skips every
 * run already recorded, and completes only the remainder.  Because the
 * simulator is deterministic and doubles round-trip through "%.17g", a
 * resumed sweep produces byte-identical final JSON to an uninterrupted
 * one.
 *
 * File format (one JSON object per line):
 *
 *   {"absim_journal":1,"title":...,"app":...,"topology":...,"metric":...}
 *   {"procs":8,"target":1.25e+03,"logp":...,"logpc":...}
 *   {"procs":16,"machine":"logp","error":"Deadlock","message":"..."}
 *
 * Success records carry one numeric field per swept machine, keyed by
 * the machine's registry column name.  Sweeps of the classic trio
 * (target, logp, logp+c) use exactly the layout above; a sweep of any
 * other machine set adds a "machines" array to its header line, so a
 * journal can never resume a sweep with different columns.
 *
 * Sharded sweeps (SweepOptions::shard, --shard K/N) write one record
 * per owned (point x machine) work item instead of one per point: a
 * success record carries a single column (the item's machine), failures
 * keep the per-machine failure layout.  The header stamps both the
 * machine columns and the shard spec ("shard":"K/N"), so a shard
 * journal never resumes a mismatched shard, and records are strictly
 * positional — the r-th record of shard K/N is row-major work item
 * K + r*N.  core/journal_merge.hh reassembles N shard journals into the
 * canonical serial journal.
 *
 * The first line identifies the sweep; a journal whose header does not
 * match the running sweep is ignored and rewritten (it belongs to a
 * different figure or an older layout).  A torn trailing line (the
 * process died mid-write, or the line lost its newline) is discarded
 * along with anything after it, and the loader reports the length of
 * the clean prefix so a resume can truncate the tear away before
 * appending — a torn tail is a clean resume point, never corruption.
 * Lines are read back with the one JSON reader (json/json.hh): a line
 * that is not a single well-formed object, or repeats a key, is torn.
 */

#ifndef ABSIM_CORE_JOURNAL_HH
#define ABSIM_CORE_JOURNAL_HH

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "json/json.hh"

namespace absim::core {

/** The classic trio's record columns, the layout every journal used
 *  before machine sets became configurable. */
const std::vector<std::string> &defaultJournalColumns();

/**
 * Deterministic shard of a sweep's (point x machine) work grid.
 *
 * Work items are indexed row-major (point-major, machine-minor) over
 * the full grid; shard {index, count} owns item g iff
 * g % count == index.  The default {0, 1} is the unsharded whole.
 */
struct ShardSpec
{
    std::uint32_t index = 0;
    std::uint32_t count = 1;

    bool sharded() const { return count > 1; }
    bool valid() const { return count >= 1 && index < count; }

    /** True if this shard owns row-major work item @p item. */
    bool owns(std::size_t item) const { return item % count == index; }

    /** "K/N", the CLI/env/header spelling. */
    std::string str() const;

    /** Parse "K/N" with 0 <= K < N; rejects garbage and signs. */
    [[nodiscard]] static bool parse(const std::string &text,
                                    ShardSpec &out);

    bool operator==(const ShardSpec &other) const = default;
};

/** Identity of the sweep a journal belongs to. */
struct JournalHeader
{
    std::string title;
    std::string app;
    std::string topology;
    std::string metric;

    /** Column names of the swept machines; empty for the classic trio
     *  (kept out of the header line for byte-compatibility).  Shard
     *  journals always stamp the columns. */
    std::vector<std::string> machines;

    /** Which shard of the sweep this journal holds; unsharded journals
     *  keep the default (and their legacy header bytes). */
    ShardSpec shard;

    bool operator==(const JournalHeader &other) const = default;
};

/** One journaled point: per-machine values or one failure. */
struct JournalRecord
{
    std::uint32_t procs = 0;

    bool failed = false;

    /** Success payload (failed == false), in sweep column order.  A
     *  shard journal's success records hold exactly one value. */
    std::vector<double> values;

    /** Failure payload (failed == true). */
    std::string machine; ///< Which machine's run failed.
    std::string error;   ///< RunErrorKind name.
    std::string message; ///< One-line failure summary.
    std::string trace;   ///< Bounded trace excerpt ("" = none captured).
};

/**
 * The serial journal layout of one point, from its M per-machine item
 * records in machine order (the shard layout: a success carries its one
 * value): one success record with every column when no item failed,
 * else the failed items' records in machine order.
 */
std::vector<JournalRecord>
serialPointRecords(std::span<const JournalRecord> items);

/** The JSON string escape and the round-trip "%.17g" double formatter
 *  every journal and figure writer shares (json/json.hh). */
using json::formatDouble;
using json::jsonEscape;

/**
 * Render one record as its journal line (no trailing newline).
 * Success records emit record.values keyed by @p columns (the two must
 * be the same length).
 */
std::string encodeRecord(const JournalRecord &record,
                         const std::vector<std::string> &columns =
                             defaultJournalColumns());

/**
 * Parse one journal line; success records must carry every column in
 * @p columns.
 * @return false if the line is malformed (e.g. torn by a crash).
 */
[[nodiscard]] bool decodeRecord(const std::string &line,
                                JournalRecord &out,
                                const std::vector<std::string> &columns =
                                    defaultJournalColumns());

/**
 * Parse a journal header line (the "absim_journal":1 line).
 * @return false if the line is not a well-formed header.
 */
[[nodiscard]] bool decodeHeader(const std::string &line,
                                JournalHeader &out);

/** What loadJournal()/loadShardJournal() found at the end of the file:
 *  where the valid prefix ends, and whether a torn tail was dropped. */
struct JournalResume
{
    /** A trailing record was torn (malformed or missing its newline)
     *  and dropped together with anything after it. */
    bool tornTail = false;

    /** Byte length of the valid prefix (header + intact records).  The
     *  clean resume point: truncate here before appending. */
    std::uint64_t cleanBytes = 0;
};

/**
 * Load a journal.
 *
 * @return true and the usable records if @p path exists and its header
 *         matches @p expect; false (and no records) otherwise.
 *         Parsing stops at the first malformed or unterminated line;
 *         @p resume (optional) reports the clean-prefix length so the
 *         caller can truncate the tear before appending.
 */
[[nodiscard]] bool loadJournal(const std::string &path,
                               const JournalHeader &expect,
                               const std::vector<std::string> &columns,
                               std::vector<JournalRecord> &out,
                               JournalResume *resume = nullptr);

/** Classic-trio overload of loadJournal. */
[[nodiscard]] bool loadJournal(const std::string &path,
                               const JournalHeader &expect,
                               std::vector<JournalRecord> &out);

/**
 * Load a shard journal (one record per owned (point x machine) item).
 * @p expect.shard must be a valid spec; record r decodes against the
 * single column of row-major item expect.shard.index + r*count.  Same
 * header-match and torn-tail semantics as loadJournal().
 */
[[nodiscard]] bool
loadShardJournal(const std::string &path, const JournalHeader &expect,
                 const std::vector<std::string> &columns,
                 std::vector<JournalRecord> &out,
                 JournalResume *resume = nullptr);

/** Default records-between-fsyncs in JournalWriter: the bounded window
 *  an OS crash (not a process crash — every record is flushed) may
 *  lose.  ABSIM_FSYNC_INTERVAL overrides it (see
 *  journalFsyncInterval()). */
inline constexpr unsigned kJournalFsyncInterval = 8;

/**
 * The journal fsync cadence: ABSIM_FSYNC_INTERVAL (checked via
 * core::envUint — garbage or 0 is a named diagnostic and exit 2),
 * defaulting to kJournalFsyncInterval.  1 fsyncs every record (the
 * durable extreme); larger values trade a wider OS-crash window for
 * fewer fsyncs on sweep-heavy workloads.
 */
[[nodiscard]] unsigned journalFsyncInterval();

/**
 * Durable journal writer: keeps the file open across a sweep, flushes
 * every record to the OS, and fsyncs the header, every
 * journalFsyncInterval() records, and on close — so a record
 * acknowledged to the sweep's in-order frontier survives an OS crash
 * up to the bounded fsync window, and a resume recomputes at most that
 * window.
 *
 * The writer also serves non-sweep line-JSON journals (the serve
 * result cache): startLine() writes an arbitrary header line and
 * appendLine() an arbitrary record line, with the same
 * flush-every-record + periodic-fsync + torn-tail-truncating-resume
 * discipline.
 */
class JournalWriter
{
  public:
    JournalWriter() = default;
    ~JournalWriter() { close(); }
    JournalWriter(const JournalWriter &) = delete;
    JournalWriter &operator=(const JournalWriter &) = delete;

    /** Create/truncate @p path and write + fsync the header line.
     *  @p fsyncEvery 0 (the default) means journalFsyncInterval(). */
    [[nodiscard]] bool start(const std::string &path,
                             const JournalHeader &header,
                             unsigned fsyncEvery = 0);

    /** Like start() but with a caller-rendered header line (no trailing
     *  newline), for journals that are not figure sweeps. */
    [[nodiscard]] bool startLine(const std::string &path,
                                 const std::string &headerLine,
                                 unsigned fsyncEvery = 0);

    /**
     * Resume an existing journal: truncate it to @p cleanBytes (the
     * JournalResume::cleanBytes of the load, dropping any torn tail)
     * and append after that point.
     */
    [[nodiscard]] bool
    resume(const std::string &path, std::uint64_t cleanBytes,
           unsigned fsyncEvery = 0);

    bool isOpen() const { return file_ != nullptr; }

    /** Append one record: written + flushed immediately, fsynced every
     *  fsyncEvery records (no-op when the writer is not open). */
    void append(const JournalRecord &record,
                const std::vector<std::string> &columns =
                    defaultJournalColumns());

    /** Append one caller-rendered record line (no trailing newline);
     *  same flush/fsync discipline as append(). */
    void appendLine(const std::string &line);

    /** Flush + fsync + close; idempotent, also run by the destructor. */
    void close();

  private:
    void sync();

    std::FILE *file_ = nullptr;
    unsigned interval_ = kJournalFsyncInterval;
    unsigned sinceSync_ = 0;
};

} // namespace absim::core

#endif // ABSIM_CORE_JOURNAL_HH
