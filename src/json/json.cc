#include "json/json.hh"

#include <algorithm>
#include <charconv>
#include <cstdio>

namespace absim::json {

namespace {

/** Sorting keeps the check O(n log n): a hostile line of many short
 *  keys must not turn into a quadratic scan. */
bool
hasDuplicateKey(const std::vector<Member> &members)
{
    if (members.size() < 2)
        return false;
    std::vector<std::string_view> keys;
    keys.reserve(members.size());
    for (const Member &m : members)
        keys.push_back(m.key);
    std::sort(keys.begin(), keys.end());
    return std::adjacent_find(keys.begin(), keys.end()) != keys.end();
}

/** from_chars over all of @p text: no sign, prefix or trailing byte. */
template <typename T, typename... Base>
bool
fromChars(std::string_view text, T &out, Base... base)
{
    const char *last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(text.data(), last, out, base...);
    return !text.empty() && ec == std::errc() && end == last;
}

class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    /** The whole text is one value, with optional whitespace around. */
    bool
    document(Value &out)
    {
        skipSpace();
        if (!value(out, 0))
            return false;
        skipSpace();
        return at_ == text_.size() || fail("trailing bytes after the value");
    }

    /** The whole text is one number token, with nothing around it. */
    bool
    numberToken()
    {
        return scanNumber() && at_ == text_.size();
    }

    const char *why = "";

  private:
    bool
    fail(const char *reason)
    {
        why = reason;
        return false;
    }

    bool peek(char c) const { return at_ < text_.size() && text_[at_] == c; }

    void
    skipSpace()
    {
        while (peek(' ') || peek('\t') || peek('\n') || peek('\r'))
            ++at_;
    }

    bool
    value(Value &out, unsigned depth)
    {
        if (at_ >= text_.size())
            return fail("unexpected end of input");
        switch (text_[at_]) {
          case '{':
          case '[':
            return container(out, depth + 1);
          case '"':
            out.type = Type::String;
            return string(out.text);
          case 't':
            return literal(out, "true", Type::Bool);
          case 'f':
            return literal(out, "false", Type::Bool);
          case 'n':
            return literal(out, "null", Type::Null);
          default:
            return number(out);
        }
    }

    /** An object or an array, at its opening bracket. */
    bool
    container(Value &out, unsigned depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        const bool object = text_[at_++] == '{';
        const char close = object ? '}' : ']';
        out.type = object ? Type::Object : Type::Array;
        skipSpace();
        if (peek(close)) {
            ++at_;
            return true;
        }
        for (;;) {
            Value *element = nullptr;
            if (!object) {
                element = &out.items.emplace_back();
            } else {
                Member &member = out.members.emplace_back();
                if (!peek('"'))
                    return fail("expected a string key");
                if (!string(member.key))
                    return false;
                skipSpace();
                if (!peek(':'))
                    return fail("expected ':' after a key");
                ++at_;
                skipSpace();
                element = &member.value;
            }
            if (!value(*element, depth))
                return false;
            skipSpace();
            if (peek(',')) {
                ++at_;
                skipSpace();
            } else if (peek(close)) {
                ++at_;
                return !object || !hasDuplicateKey(out.members) ||
                       fail("duplicate key");
            } else {
                return fail(object ? "expected ',' or '}' in an object"
                                   : "expected ',' or ']' in an array");
            }
        }
    }

    /** At the opening quote; decodes the string body into @p out. */
    bool
    string(std::string &out)
    {
        ++at_;
        for (;;) {
            // Copy the plain run up to the next quote, escape or
            // control byte in one append.
            const std::size_t start = at_;
            while (at_ < text_.size() && text_[at_] != '"' &&
                   text_[at_] != '\\' &&
                   static_cast<unsigned char>(text_[at_]) >= 0x20)
                ++at_;
            out.append(text_.substr(start, at_ - start));
            if (at_ >= text_.size())
                return fail("unterminated string");
            const char c = text_[at_++];
            if (c == '"')
                return true;
            if (c != '\\')
                return fail("raw control byte in a string");
            if (at_ >= text_.size())
                return fail("unterminated string");
            static constexpr std::string_view kEscapes = "\"\\/bfnrt";
            static constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
            const char e = text_[at_++];
            if (e == 'u') {
                if (!unicodeEscape(out))
                    return false;
            } else if (const std::size_t k = kEscapes.find(e);
                       k != std::string_view::npos) {
                out += kDecoded[k];
            } else {
                return fail("unknown escape in a string");
            }
        }
    }

    /** After "\u": exactly four hex digits, appended as UTF-8. */
    bool
    unicodeEscape(std::string &out)
    {
        unsigned code = 0;
        if (text_.size() - at_ < 4 ||
            !fromChars(text_.substr(at_, 4), code, 16))
            return fail("\\u escape needs four hex digits");
        at_ += 4;
        if (code >= 0xd800 && code <= 0xdfff)
            return fail("\\u escape names a surrogate");
        if (code < 0x80) {
            out += static_cast<char>(code);
        } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
        } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
        }
        return true;
    }

    bool
    literal(Value &out, std::string_view word, Type type)
    {
        if (text_.substr(at_, word.size()) != word)
            return fail("unexpected character");
        at_ += word.size();
        out.type = type;
        out.text.assign(word);
        return true;
    }

    bool
    digits()
    {
        const std::size_t start = at_;
        while (at_ < text_.size() && text_[at_] >= '0' && text_[at_] <= '9')
            ++at_;
        return at_ > start;
    }

    bool
    number(Value &out)
    {
        const std::size_t start = at_;
        if (!scanNumber())
            return false;
        out.type = Type::Number;
        out.text.assign(text_.substr(start, at_ - start));
        return true;
    }

    /** -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)? */
    bool
    scanNumber()
    {
        const std::size_t start = at_;
        if (peek('-'))
            ++at_;
        if (peek('0'))
            ++at_;
        else if (!digits())
            return fail(at_ == start ? "unexpected character"
                                     : "malformed number");
        if (peek('.')) {
            ++at_;
            if (!digits())
                return fail("malformed number");
        }
        if (peek('e') || peek('E')) {
            ++at_;
            if (peek('+') || peek('-'))
                ++at_;
            if (!digits())
                return fail("malformed number");
        }
        return true;
    }

    std::string_view text_;
    std::size_t at_ = 0;
};

} // namespace

const Value *
Value::find(std::string_view key) const
{
    for (const Member &m : members)
        if (m.key == key)
            return &m.value;
    return nullptr;
}

bool
parse(std::string_view text, Value &out, std::string *why)
{
    out = Value{};
    Parser parser(text);
    if (parser.document(out))
        return true;
    if (why != nullptr)
        *why = parser.why;
    return false;
}

bool
parseUint(std::string_view text, std::uint64_t &out)
{
    // from_chars takes digits only; the JSON grammar adds no leading 0.
    return (text.size() <= 1 || text[0] != '0') && fromChars(text, out);
}

bool
parseDouble(std::string_view text, double &out)
{
    return Parser(text).numberToken() && fromChars(text, out);
}

bool
toUint(const Value &value, std::uint64_t &out)
{
    return value.type == Type::Number && fromChars(value.text, out);
}

bool
toDouble(const Value &value, double &out)
{
    return value.type == Type::Number && fromChars(value.text, out);
}

bool
getString(const Value &object, std::string_view key, std::string &out)
{
    const Value *v = object.find(key);
    if (v == nullptr || v->type != Type::String)
        return false;
    out = v->text;
    return true;
}

bool
getUint(const Value &object, std::string_view key, std::uint64_t &out)
{
    const Value *v = object.find(key);
    return v != nullptr && toUint(*v, out);
}

bool
getDouble(const Value &object, std::string_view key, double &out)
{
    const Value *v = object.find(key);
    return v != nullptr && toDouble(*v, out);
}

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (const char ch : s) {
        const auto c = static_cast<unsigned char>(ch);
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    return out;
}

std::string
formatDouble(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

} // namespace absim::json
