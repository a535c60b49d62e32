/**
 * @file
 * The one JSON reader of the tree, and the one string escape and
 * round-trip number formatter its writers share.
 *
 * Every line-JSON format the simulator reads back — sweep journals,
 * serve requests, the result-cache journal, trace headers, BENCH_*.json
 * files and absim_lint reports — goes through parse().  The module
 * depends on nothing but the standard library and compiles as C++17,
 * so it sits below every src/ layer and absim_lint builds it
 * standalone.
 *
 * The reader takes exactly one value (RFC 8259 grammar) and rejects
 * anything else, with a short reason:
 *
 *   - JSON whitespace around tokens; any byte after the value fails.
 *   - Containers nest at most kMaxDepth deep.
 *   - An object with the same key twice fails; members keep their
 *     document order.
 *   - String escapes are `\"` `\\` `\/` `\b` `\f` `\n` `\r` `\t` and
 *     `\uXXXX` with exactly four hex digits, decoded to UTF-8; a
 *     surrogate code point, any other escape, and a raw byte below 0x20
 *     fail.  Other bytes pass through unchanged (no UTF-8 validation).
 *   - Numbers follow the JSON number grammar and keep their raw token;
 *     toUint() and toDouble() are the checked conversions.
 *
 * parse() never throws on input, and every allocation it makes is
 * bounded by the size of its input.
 */

#ifndef ABSIM_JSON_JSON_HH
#define ABSIM_JSON_JSON_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace absim::json {

/** Deepest container nesting parse() accepts (a BENCH_*.json file
 *  needs 4: document, benches[], a bench, its counters). */
inline constexpr unsigned kMaxDepth = 8;

enum class Type : std::uint8_t { Null, Bool, Number, String, Array, Object };

struct Member;

/** One parsed JSON value. */
struct Value
{
    Type type = Type::Null;

    /** String: the decoded bytes.  Number: the raw token.  Bool and
     *  Null: the literal ("true", "false", "null"). */
    std::string text;

    std::vector<Value> items;    ///< Array elements, in order.
    std::vector<Member> members; ///< Object members, in document order.

    bool isString() const { return type == Type::String; }

    /** The member @p key of an object; nullptr when absent (or when
     *  this is not an object). */
    const Value *find(std::string_view key) const;
};

/** One object member. */
struct Member
{
    std::string key;
    Value value;
};

/**
 * Parse exactly one JSON value from @p text into @p out.
 * @return false on any deviation from the grammar above, with a short
 *         reason in @p why when given; @p out is then unspecified.
 */
[[nodiscard]] bool parse(std::string_view text, Value &out,
                         std::string *why = nullptr);

/** A Number that is a non-negative integer fitting uint64_t (no sign,
 *  fraction or exponent). */
[[nodiscard]] bool toUint(const Value &value, std::uint64_t &out);

/** A Number converted to the nearest double; false if it overflows. */
[[nodiscard]] bool toDouble(const Value &value, double &out);

/**
 * The same conversions for a bare text (argv, environment): all of
 * @p text must be one JSON number token — no whitespace, no '+', no
 * hex, no leading zero, no inf or nan — so every boundary accepts the
 * same number texts.
 */
[[nodiscard]] bool parseUint(std::string_view text, std::uint64_t &out);
[[nodiscard]] bool parseDouble(std::string_view text, double &out);

/** Member @p key of @p object, converted; false when it is absent or
 *  of another type. */
[[nodiscard]] bool getString(const Value &object, std::string_view key,
                             std::string &out);
[[nodiscard]] bool getUint(const Value &object, std::string_view key,
                           std::uint64_t &out);
[[nodiscard]] bool getDouble(const Value &object, std::string_view key,
                             double &out);

/**
 * Escape @p s for a JSON string body: `\"` `\\` `\n` `\r` `\t`, and
 * `\u00XX` for every other byte below 0x20.  (Named so core/ can
 * re-export it as core::jsonEscape with a using-declaration.)
 */
std::string jsonEscape(std::string_view s);

/** Format a double so it round-trips exactly ("%.17g"). */
std::string formatDouble(double value);

} // namespace absim::json

#endif // ABSIM_JSON_JSON_HH
