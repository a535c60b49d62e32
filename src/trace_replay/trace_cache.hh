/**
 * @file
 * A byte-bounded cache of loaded traces.
 *
 * A replayed figure sweep loads the trace of each processor count once
 * per machine column; core::runOne reads every trace through one
 * process-wide TraceCache so that only the first sweep over a figure
 * pays the loads (docs/TRACING.md).  Entries are keyed by (path, mtime,
 * size), validated against the file's stat on every lookup, so a
 * re-recorded trace is never replayed stale.  The bound is in encoded
 * trace bytes, not entries: the least recently used traces leave once
 * a new one would pass it, and a trace larger than the whole bound is
 * returned without being cached.
 */

#ifndef ABSIM_TRACE_REPLAY_TRACE_CACHE_HH
#define ABSIM_TRACE_REPLAY_TRACE_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "trace_replay/format.hh"

namespace absim::trace {

class TraceCache
{
  public:
    /** A cache of at most @p capBytes encoded trace bytes. */
    explicit TraceCache(std::size_t capBytes) : capBytes_(capBytes) {}

    TraceCache(const TraceCache &) = delete;
    TraceCache &operator=(const TraceCache &) = delete;

    /**
     * The trace stored at @p path: the cached copy while the file's
     * mtime and size still match it, else a fresh load, which replaces
     * any older version of the path.  Thread-safe; loads run outside
     * the lock.
     * @return nullptr when the file is missing or torn (loadTrace
     *         fails) — the caller's record-on-miss path handles it.
     */
    std::shared_ptr<const Trace> load(const std::string &path);

    /** Encoded bytes of the traces now cached. */
    std::size_t cachedBytes() const;

  private:
    struct Entry
    {
        std::string path;
        std::filesystem::file_time_type mtime;
        std::uintmax_t size = 0;
        std::shared_ptr<const Trace> trace;
    };

    const std::size_t capBytes_;
    mutable std::mutex mu_;
    std::vector<Entry> entries_; // Back = most recently used.
    std::size_t cachedBytes_ = 0;
};

} // namespace absim::trace

#endif // ABSIM_TRACE_REPLAY_TRACE_CACHE_HH
