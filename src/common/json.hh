/**
 * @file
 * Minimal JSON document parser for the serializable job API.
 *
 * The checkpoint journal deliberately parses its own exact emitter
 * output with a strict sequential cursor; the sweep-service protocol
 * cannot afford that, because job requests arrive from external
 * clients whose field order and whitespace are not ours to dictate.
 * This parser accepts any syntactically valid JSON document (objects,
 * arrays, strings, numbers, booleans, null) and returns a typed tree;
 * malformed input surfaces as a typed Error (never a crash), which is
 * what lets the daemon treat garbage frames as a client problem
 * instead of a process problem.
 *
 * Scope: this is a deserializer only.  Writers in this codebase emit
 * canonical JSON by string concatenation (checkpoint, report,
 * job_spec) so that serialized artifacts are reproducible
 * byte-for-byte; a general-purpose writer would obscure that
 * guarantee.  Numbers are held as doubles (exact for the unsigned
 * integers the job API uses, up to 2^53) plus the raw literal for
 * callers that need to reject non-integers.
 */

#ifndef GLLC_COMMON_JSON_HH
#define GLLC_COMMON_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.hh"

namespace gllc
{

/** One node of a parsed JSON document. */
class JsonValue
{
  public:
    enum class Kind : std::uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool boolean() const { return boolean_; }
    double number() const { return number_; }
    const std::string &string() const { return string_; }

    /** Array elements (valid when isArray()). */
    const std::vector<JsonValue> &items() const { return items_; }

    /** Object members in document order (valid when isObject()). */
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const
    {
        return members_;
    }

    /** First member of @p key, or nullptr when absent. */
    const JsonValue *find(const std::string &key) const;

    /**
     * The value as an unsigned integer.  Errors (InvalidArgument)
     * when the node is not a number, is negative, has a fractional
     * part, or exceeds 2^53 (where doubles stop being exact).
     */
    [[nodiscard]] Result<std::uint64_t>
    asU64(const char *what) const;

    /** The value as a string; InvalidArgument otherwise. */
    [[nodiscard]] Result<std::string>
    asString(const char *what) const;

    /** The value as a bool; InvalidArgument otherwise. */
    [[nodiscard]] Result<bool> asBool(const char *what) const;

  private:
    friend class JsonParser;

    Kind kind_ = Kind::Null;
    bool boolean_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<JsonValue> items_;
    std::vector<std::pair<std::string, JsonValue>> members_;
};

/**
 * Parse one complete JSON document.  Trailing non-whitespace bytes,
 * nesting beyond 64 levels, and every syntax violation produce an
 * Error of code Corrupt with the byte offset in the context string.
 */
[[nodiscard]] Result<JsonValue> parseJson(const std::string &text);

/**
 * Decode the rest of a JSON string literal: @p pos is just past the
 * opening quote, and on success just past the closing one, with the
 * unescaped bytes in @p out.  nullptr on success, else what is
 * malformed.  parseJson() and the checkpoint line reader share it.
 */
const char *decodeJsonString(const std::string &text, std::size_t &pos,
                             std::string &out);

/**
 * Escape a string for embedding in a JSON emitter ("\\", '"',
 * control characters).  The inverse of the parser's unescaping; the
 * canonical writers (job_spec, protocol) share it.
 */
std::string jsonEscape(const std::string &s);

} // namespace gllc

#endif // GLLC_COMMON_JSON_HH
