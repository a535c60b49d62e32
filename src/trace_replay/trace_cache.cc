#include "trace_replay/trace_cache.hh"

namespace absim::trace {

std::shared_ptr<const Trace>
TraceCache::load(const std::string &path)
{
    std::error_code ec;
    const auto mtime = std::filesystem::last_write_time(path, ec);
    if (ec)
        return nullptr;
    const auto size = std::filesystem::file_size(path, ec);
    if (ec)
        return nullptr;

    {
        const std::lock_guard<std::mutex> lock(mu_);
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            if (entries_[i].path == path && entries_[i].mtime == mtime &&
                entries_[i].size == size) {
                Entry hit = std::move(entries_[i]);
                entries_.erase(entries_.begin() +
                               static_cast<std::ptrdiff_t>(i));
                entries_.push_back(std::move(hit));
                return entries_.back().trace;
            }
        }
    }

    // Parse outside the lock: concurrent sweep shards loading
    // *different* traces must not serialize (a duplicate concurrent
    // load of the same path is wasteful but harmless).
    auto loaded = std::make_shared<Trace>();
    if (!loadTrace(path, *loaded))
        return nullptr;

    const std::size_t bytes = loaded->bytes.size();
    if (bytes > capBytes_)
        return loaded; // Replayed, never cached.
    const std::lock_guard<std::mutex> lock(mu_);
    const auto evict = [this](std::vector<Entry>::iterator it) {
        cachedBytes_ -= it->trace->bytes.size();
        return entries_.erase(it);
    };
    for (auto it = entries_.begin(); it != entries_.end();)
        it = it->path == path ? evict(it) : it + 1; // A stale version.
    while (cachedBytes_ + bytes > capBytes_)
        evict(entries_.begin());
    entries_.push_back(Entry{path, mtime, size, loaded});
    cachedBytes_ += bytes;
    return loaded;
}

std::size_t
TraceCache::cachedBytes() const
{
    const std::lock_guard<std::mutex> lock(mu_);
    return cachedBytes_;
}

} // namespace absim::trace
