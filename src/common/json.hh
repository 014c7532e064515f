/**
 * @file
 * Minimal JSON support: a streaming emitter for machine-readable
 * reports (Pipeline::report(), bench baselines) and a small document
 * parser (`parseJson` -> `JsonValue`) for the artifacts the stack
 * reads back itself -- a `CompiledModel` saved by one process and
 * loaded by another (src/runtime/compiled_model.hh).
 */

#ifndef FPSA_COMMON_JSON_HH
#define FPSA_COMMON_JSON_HH

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hh"

namespace fpsa
{

/**
 * Streaming JSON writer with automatic comma placement.
 *
 *     JsonWriter j;
 *     j.beginObject();
 *     j.field("throughput", 1.3e8);
 *     j.key("stages").beginArray();
 *     ...
 *     j.endArray();
 *     j.endObject();
 *     std::string text = j.str();
 */
class JsonWriter
{
  public:
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Emit an object key; follow with a value or begin*(). */
    JsonWriter &key(const std::string &name);

    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v);
    JsonWriter &value(double v);
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(int v);
    JsonWriter &value(bool v);
    JsonWriter &null();

    /**
     * Emit an already-serialized JSON value verbatim (e.g. splicing one
     * report into a larger document).  The caller guarantees it is
     * valid JSON.
     */
    JsonWriter &raw(const std::string &json);

    /** key() + value() in one call. */
    template <typename T>
    JsonWriter &
    field(const std::string &name, T v)
    {
        key(name);
        return value(v);
    }

    const std::string &str() const { return out_; }

    static std::string escape(const std::string &s);

  private:
    void separate();
    static void appendEscaped(std::string &out, const std::string &s);

    std::string out_;
    /** Per nesting level: whether a value has been emitted yet. */
    std::vector<bool> hasItem_;
    bool pendingKey_ = false;
};

/**
 * A parsed JSON document node.
 *
 * Accessors are total: asking a node for the wrong kind returns a
 * neutral default (0, "", empty array) instead of dying, so loaders
 * can read a whole document linearly and validate once at the end
 * (see `JsonPath`-style checking in runtime/compiled_model.cc).  Use
 * `kind()`/`is*()` where the distinction matters.
 */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    JsonValue() = default;

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool boolean() const { return isBool() && bool_; }
    double number() const { return isNumber() ? number_ : 0.0; }

    /**
     * The number truncated toward zero, saturated to the int64 range:
     * casting a double outside it (a corrupt document's 1e30) is
     * undefined behaviour.
     */
    std::int64_t
    asInt() const
    {
        const double x = number();
        if (x >= 0x1p63)
            return std::numeric_limits<std::int64_t>::max();
        if (x < -0x1p63)
            return std::numeric_limits<std::int64_t>::min();
        return static_cast<std::int64_t>(x);
    }

    const std::string &string() const;

    /** Array elements (empty for non-arrays). */
    const std::vector<JsonValue> &array() const;
    std::size_t size() const { return array_.size(); }
    const JsonValue &at(std::size_t i) const;

    /** Object member, or null when absent / not an object. */
    const JsonValue *find(const std::string &key) const;

    /** Object member; a shared immutable Null when absent. */
    const JsonValue &operator[](const std::string &key) const;

    // Construction (used by the parser; loaders only read).
    static JsonValue makeNull() { return JsonValue(); }
    static JsonValue makeBool(bool v);
    static JsonValue makeNumber(double v);
    static JsonValue makeString(std::string v);
    static JsonValue makeArray(std::vector<JsonValue> elems);
    static JsonValue makeObject(
        std::vector<std::pair<std::string, JsonValue>> members);

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<JsonValue> array_;
    std::vector<std::pair<std::string, JsonValue>> object_;
};

/**
 * Parse a complete JSON document.  Returns `InvalidArgument` (with a
 * byte offset) on malformed input or trailing garbage.  Numbers are
 * held as doubles; `null` inside numeric slots reads back as 0 (the
 * writer emits `null` for non-finite values).
 */
StatusOr<JsonValue> parseJson(const std::string &text);

} // namespace fpsa

#endif // FPSA_COMMON_JSON_HH
