/**
 * @file
 * The serve daemon's content-addressed result cache.
 *
 * Maps a run's or a complete sweep's canonical key hash
 * (core/cache_key.hh) to the byte-exact response payload it produced.
 * Because the simulator is deterministic, a hit is exact — the cache
 * never approximates.
 *
 * Persistence reuses the sweep journal discipline (core/journal.hh):
 * one JSON line per entry, flushed on every insert and fsynced every
 * journalFsyncInterval() inserts, with the torn-tail rule on load — a
 * process killed mid-write leaves a trailing partial line, open()
 * recovers the clean prefix, truncates the tear away, and every entry
 * before it re-serves byte-identical responses after restart.
 *
 * File format:
 *
 *   {"absim_cache":1}
 *   {"key":"<16-hex>","canon":"app=is;...","payload":"{\"status\"...}"}
 *
 * The canonical key string is stored next to the hash so a collision
 * or canonicalization drift is detectable on load, never silent: a
 * record whose canon re-hashes to a different key is treated as the
 * start of a tear.
 */

#ifndef ABSIM_SERVE_RESULT_CACHE_HH
#define ABSIM_SERVE_RESULT_CACHE_HH

#include <cstdint>
#include <map>
#include <string>

#include "core/journal.hh"

namespace absim::serve {

/** Journal-backed key -> payload map.  Not internally synchronized —
 *  the Service serializes access under its cache mutex. */
class ResultCache
{
  public:
    ResultCache() = default;
    ~ResultCache() { close(); }
    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    /**
     * Attach the cache to @p path: load the surviving entries (header
     * mismatch = fresh cache; torn tail = truncate to the clean
     * prefix) and open the journal for appending.  An empty path keeps
     * the cache memory-only.
     * @return true if inserts will persist (the journal opened).
     */
    [[nodiscard]] bool open(const std::string &path);

    /** Flush + fsync + close the journal; entries stay readable. */
    void close();

    /** @return true and the stored payload on a hit. */
    [[nodiscard]] bool lookup(std::uint64_t key,
                              std::string &payload) const;

    /**
     * Insert an entry (journaled immediately).  First write wins: a
     * concurrent duplicate compute keeps the first payload so repeated
     * requests stay byte-identical.
     */
    void insert(std::uint64_t key, const std::string &canon,
                const std::string &payload);

    std::size_t size() const { return entries_.size(); }

    /** True if open() dropped a torn tail from the journal. */
    bool recoveredTornTail() const { return torn_; }

    /** Entries loaded from disk by open() (vs inserted since). */
    std::size_t recoveredEntries() const { return recovered_; }

  private:
    // std::map, not unordered_map: iteration order feeds nothing today,
    // but every byte-emitting structure in this codebase stays
    // deterministically ordered by rule (absim_lint D2).
    std::map<std::uint64_t, std::string> entries_;
    core::JournalWriter writer_;
    bool torn_ = false;
    std::size_t recovered_ = 0;
};

} // namespace absim::serve

#endif // ABSIM_SERVE_RESULT_CACHE_HH
