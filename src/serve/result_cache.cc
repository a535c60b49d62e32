#include "serve/result_cache.hh"

#include <string_view>

#include "core/cache_key.hh"
#include "json/json.hh"

namespace absim::serve {

namespace {

constexpr std::string_view kCacheHeader = "{\"absim_cache\":1}";

/** Decode one cache record line; false = torn/foreign line. */
bool
decodeEntry(const std::string &line, std::uint64_t &key,
            std::string &payload)
{
    json::Value doc;
    std::string keyHex;
    std::string canon;
    if (!json::parse(line, doc) || !json::getString(doc, "key", keyHex) ||
        !core::parseKeyHex(keyHex, key) ||
        !json::getString(doc, "payload", payload))
        return false;
    (void)json::getString(doc, "canon", canon);
    // The stored canonical string must re-hash to the stored key:
    // catches canonicalization drift and on-disk corruption that still
    // parses as JSON.
    return canon.empty() || core::fnv1a64(canon) == key;
}

} // namespace

bool
ResultCache::open(const std::string &path)
{
    close();
    entries_.clear();
    torn_ = false;
    recovered_ = 0;
    if (path.empty())
        return false;

    std::uint64_t cleanBytes = 0;
    bool haveHeader = false;
    const core::LinesEnd end = core::readJournalLines(
        path, [&](const std::string &line, bool terminated) {
            if (cleanBytes == 0) {
                // The header must be intact and newline-terminated,
                // exactly like a sweep journal's; anything else starts a
                // fresh cache.
                haveHeader = terminated && line == kCacheHeader;
                cleanBytes = line.size() + 1;
                return haveHeader;
            }
            std::uint64_t key = 0;
            std::string payload;
            if (!terminated || !decodeEntry(line, key, payload)) {
                // Torn (or corrupt) tail: the clean prefix above this
                // line is the resume point.
                torn_ = true;
                return false;
            }
            cleanBytes += line.size() + 1;
            entries_.emplace(key, std::move(payload));
            return true;
        });
    if (haveHeader && end == core::LinesEnd::TooLong)
        torn_ = true;
    recovered_ = entries_.size();
    const bool ok =
        haveHeader ? writer_.resume(path, cleanBytes)
                   : writer_.startLine(path, std::string(kCacheHeader));
    return ok;
}

void
ResultCache::close()
{
    writer_.close();
}

bool
ResultCache::lookup(std::uint64_t key, std::string &payload) const
{
    const auto it = entries_.find(key);
    if (it == entries_.end())
        return false;
    payload = it->second;
    return true;
}

void
ResultCache::insert(std::uint64_t key, const std::string &canon,
                    const std::string &payload)
{
    if (!entries_.emplace(key, payload).second)
        return; // First write wins: responses stay byte-identical.
    writer_.appendLine("{\"key\":\"" + core::formatKeyHex(key) +
                       "\",\"canon\":\"" + core::jsonEscape(canon) +
                       "\",\"payload\":\"" + core::jsonEscape(payload) +
                       "\"}");
}

} // namespace absim::serve
