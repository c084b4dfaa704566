/**
 * @file
 * Minimal JSON document parser for the serializable job API.
 *
 * The one JSON reader: job requests from external clients (whose
 * field order and whitespace are not ours to dictate), journals and
 * worker replies all go through it.  It accepts any syntactically
 * valid JSON document (objects, arrays, strings, numbers, booleans,
 * null) and returns a typed tree; malformed input surfaces as a typed
 * Error (never a crash), which is what lets the daemon treat garbage
 * frames as a client problem instead of a process problem.
 *
 * Scope: this is a deserializer only.  Writers in this codebase emit
 * canonical JSON by string concatenation (checkpoint, report,
 * job_spec) so that serialized artifacts are reproducible
 * byte-for-byte; a general-purpose writer would obscure that
 * guarantee.  Numbers are held as doubles, exact for the integers
 * below 2^53 that asU64() accepts.
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
     * part, or is 2^53 or more (where doubles stop being exact).
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
 * The scalar values of a parsed document in document order, keys
 * aside, taken one at a time.  A reader of lines only its own writer
 * emits takes them in the writer's order, then re-emits and compares,
 * which checks keys, order and shape at once.  Taking a value of the
 * wrong type, or past the last, clears ok().
 */
class JsonLeaves
{
  public:
    explicit JsonLeaves(const JsonValue &doc) { collect(doc); }

    /** The next value via asU64(); 0 when it is not one. */
    std::uint64_t u64();

    /** The next value as a string; "" when it is not one. */
    std::string str();

    bool done() const { return next_ == leaves_.size(); }
    bool ok() const { return ok_; }

  private:
    void collect(const JsonValue &node);

    std::vector<const JsonValue *> leaves_;
    std::size_t next_ = 0;
    bool ok_ = true;
};

/**
 * Parse one complete JSON document.  Trailing non-whitespace bytes,
 * nesting beyond 64 levels, and every syntax violation produce an
 * Error of code Corrupt with the byte offset in the context string.
 */
[[nodiscard]] Result<JsonValue> parseJson(const std::string &text);

/**
 * Escape a string for embedding in a JSON emitter ("\\", '"',
 * control characters).  The inverse of the parser's unescaping; the
 * canonical writers (job_spec, protocol) share it.
 */
std::string jsonEscape(const std::string &s);

} // namespace gllc

#endif // GLLC_COMMON_JSON_HH
