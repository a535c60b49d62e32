#include "core/env.hh"

#include <cstdio>
#include <cstdlib>

namespace absim::core {

std::uint64_t
envUint(const char *name, std::uint64_t fallback, std::uint64_t min,
        std::uint64_t max)
{
    const char *text = std::getenv(name);
    if (text == nullptr || *text == '\0')
        return fallback;
    std::uint64_t v = 0;
    if (!parseUint(text, v) || v < min || v > max) {
        if (max == std::numeric_limits<std::uint64_t>::max())
            std::fprintf(stderr,
                         "error: invalid %s value '%s' (expected an "
                         "integer >= %llu)\n",
                         name, text,
                         static_cast<unsigned long long>(min));
        else
            std::fprintf(stderr,
                         "error: invalid %s value '%s' (expected an "
                         "integer in [%llu, %llu])\n",
                         name, text, static_cast<unsigned long long>(min),
                         static_cast<unsigned long long>(max));
        std::exit(2);
    }
    return v;
}

const char *
envString(const char *name)
{
    const char *text = std::getenv(name);
    return (text == nullptr || *text == '\0') ? nullptr : text;
}

} // namespace absim::core
