/**
 * @file
 * Crash-safe reassembly of sharded sweep journals.
 *
 * A sweep run as N shard processes (`--shard K/N`, see
 * core::SweepOptions::shard) leaves N shard journals, each holding the
 * per-(point x machine) records of the row-major work items that shard
 * owns (item g belongs to shard g % N).  mergeJournals() validates the
 * N journals against a common header, interleaves their records back
 * into row-major order — the unsharded 0/1 journal — and reports every
 * inconsistency with a named diagnostic:
 *
 *   shard-unreadable        a journal cannot be opened
 *   shard-header-missing    a journal has no (terminated) header line
 *   shard-header-malformed  a header line does not parse
 *   shard-line-too-long     a line exceeds kMaxJournalLineBytes
 *   shard-header-mismatch   journals belong to different sweeps
 *   shard-count-mismatch    a header stamps a different shard count
 *   shard-duplicate-index   two journals stamp the same shard index
 *   shard-missing-index     no journal stamps some shard index
 *   shard-torn-tail         (warning) a trailing torn record was dropped
 *   merge-record-malformed  an interior record line does not parse
 *   merge-misplaced-record  a record carries another item's machine
 *   merge-duplicate         the same (point, machine) item twice
 *   merge-procs-mismatch    one point's records disagree on procs
 *   merge-gap               a shard is missing records others go beyond
 *   merge-incomplete-point  the trailing point lacks machine records
 *
 * A merged journal written by writeMergedJournal() is byte-identical to
 * the journal the unsharded sweep (shard 0/1) would have produced, so
 * the figure JSON/CSV writers — via a resume that replays the merged
 * journal — emit byte-identical final outputs.
 */

#ifndef ABSIM_CORE_JOURNAL_MERGE_HH
#define ABSIM_CORE_JOURNAL_MERGE_HH

#include <string>
#include <vector>

#include "core/journal.hh"

namespace absim::core {

/** Outcome of mergeJournals(): the canonical journal + diagnostics. */
struct MergeResult
{
    /** The 0/1 journal's header: the shards' header, spec stripped. */
    JournalHeader header;

    /** One record per item, in row-major order. */
    std::vector<JournalRecord> records;

    /** Named diagnostics (see the file comment); empty means the merge
     *  is usable. */
    std::vector<std::string> errors;

    /** Non-fatal diagnostics (e.g. shard-torn-tail). */
    std::vector<std::string> warnings;

    bool ok() const { return errors.empty(); }
};

/**
 * Merge the shard journals at @p paths (any order; each stamps its own
 * K/N).  Never throws for malformed input — every problem lands in
 * MergeResult::errors as a named diagnostic.
 */
[[nodiscard]] MergeResult
mergeJournals(const std::vector<std::string> &paths);

/**
 * Write @p merge as one journal file (fsynced).  The bytes match the
 * unsharded sweep's journal exactly.
 * @return false if the merge has errors or the file cannot be written.
 */
[[nodiscard]] bool writeMergedJournal(const std::string &path,
                                      const MergeResult &merge);

} // namespace absim::core

#endif // ABSIM_CORE_JOURNAL_MERGE_HH
