// Dependency-free JSON support for the observability subsystem.
//
// JsonWriter is a streaming emitter: it never builds an in-memory document,
// so trace sinks can write hundreds of thousands of events without
// allocating more than the output stream's buffer. JsonValue is a small
// recursive-descent parser used by the round-trip tests and by tools that
// read run reports back (it is not meant to be a fast general-purpose
// parser; reports and traces are the only inputs it sees).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace am {

/// Escapes @p s per RFC 8259 (quotes, backslash, control characters).
std::string json_escape(std::string_view s);

/// Streaming JSON emitter. Scopes (object/array) are explicit; the writer
/// tracks where commas are needed. Doubles that are not finite are emitted
/// as null (JSON has no NaN/Inf), which the report readers treat as "not
/// measured".
class JsonWriter {
 public:
  /// @param pretty adds newlines + two-space indentation; compact otherwise.
  explicit JsonWriter(std::ostream& os, bool pretty = false);

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emits the key of the next object member.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v);
  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint32_t v) { return value(std::uint64_t{v}); }
  JsonWriter& value(std::int32_t v) { return value(std::int64_t{v}); }
  JsonWriter& value(bool v);
  JsonWriter& null();

  /// key + value in one call.
  template <typename T>
  JsonWriter& kv(std::string_view k, T&& v) {
    key(k);
    return value(std::forward<T>(v));
  }
  JsonWriter& kv_null(std::string_view k) {
    key(k);
    return null();
  }

  /// Current nesting depth (0 at top level) — handy for asserting balance.
  int depth() const noexcept { return static_cast<int>(stack_.size()); }

 private:
  enum class Scope : std::uint8_t { kObject, kArray };
  void comma_and_indent(bool is_key);
  void newline_indent();

  std::ostream& os_;
  bool pretty_;
  std::vector<Scope> stack_;
  std::vector<bool> has_items_;  ///< per scope: something already emitted
  bool expecting_value_ = false; ///< a key was written, value pending
};

/// Parsed JSON document node. Numbers are stored as double, which holds
/// integers exactly only up to 2^53; a plain integer literal also keeps its
/// exact value (as_uint).
class JsonValue {
 public:
  enum class Type : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parses @p text. Returns nullopt and fills @p error (when given) on
  /// malformed input or trailing garbage.
  static std::optional<JsonValue> parse(std::string_view text,
                                        std::string* error = nullptr);

  Type type() const noexcept { return type_; }
  bool is_null() const noexcept { return type_ == Type::kNull; }
  bool as_bool() const noexcept { return bool_; }
  double as_number() const noexcept { return number_; }
  /// The exact value of a number written as plain digits that fit a
  /// uint64_t ("42"; not "42.0", "4.2e1" or "-0"); nullopt otherwise.
  std::optional<std::uint64_t> as_uint() const noexcept { return uint_; }
  const std::string& as_string() const noexcept { return string_; }
  const std::vector<JsonValue>& items() const noexcept { return items_; }
  /// Object members in document order.
  const std::vector<std::pair<std::string, JsonValue>>& members() const noexcept {
    return members_;
  }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const noexcept;
  /// Array element; nullptr when out of range or not an array.
  const JsonValue* at(std::size_t i) const noexcept;
  std::size_t size() const noexcept {
    return type_ == Type::kArray ? items_.size() : members_.size();
  }

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::optional<std::uint64_t> uint_;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;

  friend class JsonParser;
};

}  // namespace am
