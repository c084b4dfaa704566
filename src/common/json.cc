#include "common/json.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace gllc
{

namespace
{

constexpr int kMaxDepth = 64;

const char *decodeJsonString(const std::string &text, std::size_t &pos,
                             std::string &out);

} // namespace

const JsonValue *
JsonValue::find(const std::string &key) const
{
    for (const auto &[name, value] : members_) {
        if (name == key)
            return &value;
    }
    return nullptr;
}

Result<std::uint64_t>
JsonValue::asU64(const char *what) const
{
    if (kind_ != Kind::Number)
        return Error::format(ErrorCode::InvalidArgument,
                             "%s: expected a number", what);
    // The bound applies to the already-rounded double: 2^53 + 1
    // parses as 2^53, so 2^53 itself must be out of range.
    if (number_ < 0.0 || number_ != std::floor(number_)
        || number_ >= 9007199254740992.0)
        return Error::format(ErrorCode::InvalidArgument,
                             "%s: expected an unsigned integer",
                             what);
    return static_cast<std::uint64_t>(number_);
}

Result<std::string>
JsonValue::asString(const char *what) const
{
    if (kind_ != Kind::String)
        return Error::format(ErrorCode::InvalidArgument,
                             "%s: expected a string", what);
    return string_;
}

Result<bool>
JsonValue::asBool(const char *what) const
{
    if (kind_ != Kind::Bool)
        return Error::format(ErrorCode::InvalidArgument,
                             "%s: expected a boolean", what);
    return boolean_;
}

void
JsonLeaves::collect(const JsonValue &node)
{
    if (node.isArray()) {
        for (const JsonValue &item : node.items())
            collect(item);
    } else if (node.isObject()) {
        for (const auto &[key, value] : node.members())
            collect(value);
    } else {
        leaves_.push_back(&node);
    }
}

std::uint64_t
JsonLeaves::u64()
{
    if (!done()) {
        if (Result<std::uint64_t> v = leaves_[next_++]->asU64("value");
            v.ok())
            return v.value();
    }
    ok_ = false;
    return 0;
}

std::string
JsonLeaves::str()
{
    if (!done() && leaves_[next_]->isString())
        return leaves_[next_++]->string();
    ok_ = false;
    return "";
}

/** Recursive-descent parser over one in-memory document. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    Result<JsonValue>
    parse()
    {
        JsonValue root;
        if (Error *e = value(root, 0))
            return std::move(*e);
        skipWs();
        if (pos_ != text_.size())
            return std::move(*fail("trailing bytes after document"));
        return root;
    }

  private:
    /**
     * Errors propagate as an owned Error the call chain bubbles up;
     * nullptr means the production succeeded.
     */
    Error *
    fail(const char *what)
    {
        error_ = Error::format(ErrorCode::Corrupt,
                               "json: %s at byte %zu", what, pos_);
        return &error_;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                return;
            ++pos_;
        }
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    Error *
    value(JsonValue &out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        skipWs();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        switch (text_[pos_]) {
          case '{':
            return object(out, depth);
          case '[':
            return array(out, depth);
          case '"':
            out.kind_ = JsonValue::Kind::String;
            return string(out.string_);
          case 't':
            return literal("true", out, JsonValue::Kind::Bool, true);
          case 'f':
            return literal("false", out, JsonValue::Kind::Bool,
                           false);
          case 'n':
            return literal("null", out, JsonValue::Kind::Null,
                           false);
          default:
            return number(out);
        }
    }

    Error *
    literal(const char *text, JsonValue &out, JsonValue::Kind kind,
            bool boolean)
    {
        for (const char *p = text; *p != '\0'; ++p) {
            if (!consume(*p))
                return fail("invalid literal");
        }
        out.kind_ = kind;
        out.boolean_ = boolean;
        return nullptr;
    }

    Error *
    number(JsonValue &out)
    {
        const std::size_t start = pos_;
        consume('-');
        if (pos_ >= text_.size()
            || text_[pos_] < '0' || text_[pos_] > '9')
            return fail("invalid number");
        while (pos_ < text_.size() && text_[pos_] >= '0'
               && text_[pos_] <= '9')
            ++pos_;
        if (consume('.')) {
            if (pos_ >= text_.size() || text_[pos_] < '0'
                || text_[pos_] > '9')
                return fail("invalid number fraction");
            while (pos_ < text_.size() && text_[pos_] >= '0'
                   && text_[pos_] <= '9')
                ++pos_;
        }
        if (pos_ < text_.size()
            && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size()
                && (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (pos_ >= text_.size() || text_[pos_] < '0'
                || text_[pos_] > '9')
                return fail("invalid number exponent");
            while (pos_ < text_.size() && text_[pos_] >= '0'
                   && text_[pos_] <= '9')
                ++pos_;
        }
        const std::string literal =
            text_.substr(start, pos_ - start);
        char *end = nullptr;
        out.kind_ = JsonValue::Kind::Number;
        out.number_ = std::strtod(literal.c_str(), &end);
        if (end != literal.c_str() + literal.size())
            return fail("invalid number");
        return nullptr;
    }

    Error *
    string(std::string &out)
    {
        if (!consume('"'))
            return fail("expected '\"'");
        if (const char *why = decodeJsonString(text_, pos_, out))
            return fail(why);
        return nullptr;
    }

    Error *
    array(JsonValue &out, int depth)
    {
        consume('[');
        out.kind_ = JsonValue::Kind::Array;
        skipWs();
        if (consume(']'))
            return nullptr;
        while (true) {
            JsonValue item;
            if (Error *e = value(item, depth + 1))
                return e;
            out.items_.push_back(std::move(item));
            skipWs();
            if (consume(']'))
                return nullptr;
            if (!consume(','))
                return fail("expected ',' or ']'");
        }
    }

    Error *
    object(JsonValue &out, int depth)
    {
        consume('{');
        out.kind_ = JsonValue::Kind::Object;
        skipWs();
        if (consume('}'))
            return nullptr;
        while (true) {
            skipWs();
            std::string key;
            if (Error *e = string(key))
                return e;
            skipWs();
            if (!consume(':'))
                return fail("expected ':'");
            JsonValue member;
            if (Error *e = value(member, depth + 1))
                return e;
            out.members_.emplace_back(std::move(key),
                                      std::move(member));
            skipWs();
            if (consume('}'))
                return nullptr;
            if (!consume(','))
                return fail("expected ',' or '}'");
        }
    }

    const std::string &text_;
    std::size_t pos_ = 0;
    Error error_;
};

Result<JsonValue>
parseJson(const std::string &text)
{
    return JsonParser(text).parse();
}

namespace
{

/**
 * Decode the rest of a JSON string literal: @p pos is just past the
 * opening quote, and on success just past the closing one, with the
 * unescaped bytes in @p out.  nullptr on success, else what is
 * malformed.
 */
const char *
decodeJsonString(const std::string &text, std::size_t &pos,
                 std::string &out)
{
    out.clear();
    while (pos < text.size()) {
        const char c = text[pos];
        if (c == '"') {
            ++pos;
            return nullptr;
        }
        if (static_cast<unsigned char>(c) < 0x20)
            return "raw control character in string";
        if (c != '\\') {
            out.push_back(c);
            ++pos;
            continue;
        }
        ++pos;
        if (pos >= text.size())
            return "truncated escape";
        const char esc = text[pos++];
        switch (esc) {
          case '"':
          case '\\':
          case '/':
            out.push_back(esc);
            break;
          case 'b':
            out.push_back('\b');
            break;
          case 'f':
            out.push_back('\f');
            break;
          case 'n':
            out.push_back('\n');
            break;
          case 'r':
            out.push_back('\r');
            break;
          case 't':
            out.push_back('\t');
            break;
          case 'u': {
            std::uint32_t code = 0;
            for (int k = 0; k < 4; ++k) {
                if (pos >= text.size())
                    return "truncated \\u escape";
                const char h = text[pos++];
                code <<= 4;
                if (h >= '0' && h <= '9')
                    code |= static_cast<std::uint32_t>(h - '0');
                else if (h >= 'a' && h <= 'f')
                    code |= static_cast<std::uint32_t>(h - 'a')
                        + 10;
                else if (h >= 'A' && h <= 'F')
                    code |= static_cast<std::uint32_t>(h - 'A')
                        + 10;
                else
                    return "invalid \\u escape";
            }
            // UTF-8 encode the BMP code point; surrogate pairs
            // are beyond what the job API needs and rejected.
            if (code >= 0xd800 && code <= 0xdfff)
                return "surrogate \\u escape unsupported";
            if (code < 0x80) {
                out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
                out.push_back(
                    static_cast<char>(0xc0 | (code >> 6)));
                out.push_back(
                    static_cast<char>(0x80 | (code & 0x3f)));
            } else {
                out.push_back(
                    static_cast<char>(0xe0 | (code >> 12)));
                out.push_back(static_cast<char>(
                    0x80 | ((code >> 6) & 0x3f)));
                out.push_back(
                    static_cast<char>(0x80 | (code & 0x3f)));
            }
            break;
          }
          default:
            return "unknown escape";
        }
    }
    return "unterminated string";
}

} // namespace

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
}

} // namespace gllc
