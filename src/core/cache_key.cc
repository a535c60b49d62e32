#include "core/cache_key.hh"

#include <charconv>

#include "core/journal.hh"
#include "machines/registry.hh"

namespace absim::core {

namespace {

/**
 * Append a run's identity fields in their fixed order, every value
 * spelled canonically (registry *name* for the machine, so "logpc" and
 * "logp+c" collapse); procs only with @p withProcs, for the sweep key
 * names its P list up front.  The jsonEscape guards the free-form
 * variant string against embedding a field separator.
 */
void
appendRunFields(std::string &key, const RunConfig &config,
                const sim::RunBudget &budget, bool withProcs)
{
    key += "app=" + jsonEscape(config.app);
    key += ";n=" + std::to_string(config.params.n);
    key += ";seed=" + std::to_string(config.params.seed);
    key += ";iterations=" + std::to_string(config.params.iterations);
    key += ";variant=" + jsonEscape(config.params.variant);
    key += ";machine=";
    key += mach::specFor(config.machine).name;
    key += ";topology=" + net::toString(config.topology);
    if (withProcs)
        key += ";procs=" + std::to_string(config.procs);
    key += ";gap=" + logp::toString(config.gapPolicy);
    key += ";cache_bytes=" + std::to_string(config.cache.bytes);
    key += ";cache_ways=" + std::to_string(config.cache.ways);
    key += ";protocol=" + mach::toString(config.protocol);
    key += ";check=";
    key += config.checkResult ? "1" : "0";
    // Deterministic budget fields only — maxWallSeconds excluded (see
    // the header): a wall deadline decides *whether* the result gets
    // computed, never *what* it is.
    key += ";max_events=" + std::to_string(budget.maxEvents);
    key += ";max_sim_time=" + std::to_string(budget.maxSimTime);
    key += ";stall_limit=" + std::to_string(budget.stallDispatchLimit);
}

} // namespace

std::string
canonicalRunKey(const RunConfig &config, const sim::RunBudget &budget)
{
    std::string key;
    key.reserve(192);
    appendRunFields(key, config, budget, true);
    return key;
}

std::string
canonicalSweepKey(const RunConfig &config, const sim::RunBudget &budget,
                  Metric metric, const std::vector<std::uint32_t> &procs)
{
    std::string key;
    key.reserve(256);
    key += "op=sweep;metric=" + toString(metric) + ";procs=";
    for (std::size_t i = 0; i < procs.size(); ++i) {
        if (i != 0)
            key += ',';
        key += std::to_string(procs[i]);
    }
    key += ';';
    appendRunFields(key, config, budget, false);
    return key;
}

std::uint64_t
fnv1a64(const std::string &text)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::uint64_t
runKeyHash(const RunConfig &config, const sim::RunBudget &budget)
{
    return fnv1a64(canonicalRunKey(config, budget));
}

std::string
formatKeyHex(std::uint64_t key)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[key & 0xf];
        key >>= 4;
    }
    return out;
}

bool
parseKeyHex(const std::string &text, std::uint64_t &out)
{
    // from_chars alone would also take upper case and a shorter key.
    return text.size() == 16 &&
           text.find_first_not_of("0123456789abcdef") == std::string::npos &&
           std::from_chars(text.data(), text.data() + 16, out, 16).ec ==
               std::errc();
}

} // namespace absim::core
