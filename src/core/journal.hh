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
 *   {"absim_journal":2,"title":...,"app":...,"topology":...,"metric":...,
 *    "machines":["target","logp","logp+c"],"shard":"0/1"}
 *   {"procs":8,"machine":"logp+c","value":1.25e+03}
 *   {"procs":16,"machine":"logp","error":"Deadlock","message":"..."}
 *
 * A sweep is a grid of (point x machine) work items, indexed row-major
 * (point-major, machine-minor), and every journal holds one record per
 * item: its metric value or its failure, naming the item's machine by
 * registry name.  The header stamps the swept machines and the shard
 * spec (SweepOptions::shard, "0/1" for the unsharded sweep), so a
 * journal never resumes a sweep with other machines or another shard's
 * items.  Records are strictly positional: the r-th record of shard K/N
 * is item K + r*N, and the unsharded journal lists every item in order.
 * core/journal_merge.hh interleaves N shard journals into the 0/1
 * journal.
 *
 * The first line identifies the sweep; a journal whose header does not
 * match the running sweep is ignored and rewritten (it belongs to a
 * different sweep, or predates format 2).  A torn trailing line (the
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
#include <functional>
#include <string>
#include <vector>

#include "json/json.hh"

namespace absim::core {

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

    /** Registry names of the swept machines, in item order (never
     *  empty in a decoded header). */
    std::vector<std::string> machines;

    /** Which shard of the sweep this journal holds; {0, 1} is the
     *  unsharded whole. */
    ShardSpec shard;

    bool operator==(const JournalHeader &other) const = default;
};

/** One journaled (point x machine) item: its value or its failure. */
struct JournalRecord
{
    std::uint32_t procs = 0;

    bool failed = false;

    /** Success payload (failed == false): the item's metric value. */
    double value = 0.0;

    std::string machine; ///< The item's machine (registry name).

    /** Failure payload (failed == true). */
    std::string error;   ///< RunErrorKind name.
    std::string message; ///< One-line failure summary.
    std::string trace;   ///< Bounded trace excerpt ("" = none captured).
};

/** The JSON string escape and the round-trip "%.17g" double formatter
 *  every journal and figure writer shares (json/json.hh). */
using json::formatDouble;
using json::jsonEscape;

/** Render one record as its journal line (no trailing newline). */
std::string encodeRecord(const JournalRecord &record);

/**
 * Parse one journal line.
 * @return false if the line is malformed (e.g. torn by a crash).
 */
[[nodiscard]] bool decodeRecord(const std::string &line,
                                JournalRecord &out);

/**
 * Parse a journal header line (the "absim_journal":2 line).
 * @return false if the line is not a well-formed header.
 */
[[nodiscard]] bool decodeHeader(const std::string &line,
                                JournalHeader &out);

/** What loadJournal() found at the end of the file:
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
 * The longest line the append-only loaders read: loadJournal, the shard
 * merge (journal_merge.hh) and the serve result cache.  A line is read
 * through a buffer of this size and never grown past it, so a hostile
 * newline-free file costs one bounded buffer, not a giant allocation:
 * the journal and the cache treat a longer line as a torn tail, and the
 * merge names it (shard-line-too-long).  Real lines are far shorter; the
 * longest is a cache line, one run's canonical key and response, whose
 * request line serve caps at 1 MiB before escaping.
 */
inline constexpr std::size_t kMaxJournalLineBytes = std::size_t{8} << 20;

/** How readJournalLines() ended. */
enum class LinesEnd
{
    Done,     ///< Every line was delivered, or the callback stopped.
    TooLong,  ///< A line longer than kMaxJournalLineBytes stopped the
              ///< read; it was not delivered.
    Unopened, ///< The file could not be opened.
};

/**
 * Stream the lines of the append-only file at @p path to @p onLine in
 * order, through one buffer of kMaxJournalLineBytes: the reader of the
 * journal, the shard merge and the serve result cache.  @p onLine gets
 * each line without its newline and whether it had one (only the last
 * line can lack it); returning false stops the read.
 */
LinesEnd readJournalLines(
    const std::string &path,
    const std::function<bool(const std::string &line, bool terminated)>
        &onLine);

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
    void append(const JournalRecord &record);

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
