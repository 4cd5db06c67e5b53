#include "common/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>

namespace am {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          // Mask before widening: a raw signed char would sign-extend
          // through the int vararg and %04x would print 8 hex digits.
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

JsonWriter::JsonWriter(std::ostream& os, bool pretty)
    : os_(os), pretty_(pretty) {}

void JsonWriter::newline_indent() {
  if (!pretty_) return;
  os_ << '\n';
  for (std::size_t i = 0; i < stack_.size(); ++i) os_ << "  ";
}

void JsonWriter::comma_and_indent(bool is_key) {
  if (expecting_value_) {
    // This token is the value paired with an already-written key.
    expecting_value_ = is_key;  // a key here would be malformed; tolerate
    return;
  }
  if (!stack_.empty()) {
    if (has_items_.back()) os_ << ',';
    has_items_.back() = true;
    newline_indent();
  }
}

JsonWriter& JsonWriter::begin_object() {
  comma_and_indent(false);
  os_ << '{';
  stack_.push_back(Scope::kObject);
  has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  const bool had = !has_items_.empty() && has_items_.back();
  stack_.pop_back();
  has_items_.pop_back();
  if (had) newline_indent();
  os_ << '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma_and_indent(false);
  os_ << '[';
  stack_.push_back(Scope::kArray);
  has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  const bool had = !has_items_.empty() && has_items_.back();
  stack_.pop_back();
  has_items_.pop_back();
  if (had) newline_indent();
  os_ << ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  comma_and_indent(true);
  os_ << '"' << json_escape(k) << "\":";
  if (pretty_) os_ << ' ';
  expecting_value_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  comma_and_indent(false);
  os_ << '"' << json_escape(v) << '"';
  return *this;
}

JsonWriter& JsonWriter::value(const char* v) {
  return value(std::string_view(v));
}

JsonWriter& JsonWriter::value(double v) {
  if (!std::isfinite(v)) return null();
  comma_and_indent(false);
  char buf[32];
  // %.12g round-trips every counter a run produces and keeps files compact.
  std::snprintf(buf, sizeof buf, "%.12g", v);
  os_ << buf;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  comma_and_indent(false);
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  comma_and_indent(false);
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  comma_and_indent(false);
  os_ << (v ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::null() {
  comma_and_indent(false);
  os_ << "null";
  return *this;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> run(std::string* error) {
    JsonValue v;
    if (!parse_value(v)) {
      fill_error(error);
      return std::nullopt;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      err_ = "trailing characters";
      fill_error(error);
      return std::nullopt;
    }
    return v;
  }

 private:
  void fill_error(std::string* error) {
    if (error != nullptr) {
      *error = err_ + " at offset " + std::to_string(pos_);
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool eat(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  // Containers recurse through parse_value; a hostile input of 100k '['
  // would otherwise overflow the native stack. 256 levels is far beyond
  // anything the writers here emit.
  static constexpr std::size_t kMaxDepth = 256;

  bool parse_value(JsonValue& out) {
    skip_ws();
    if (pos_ >= text_.size()) {
      err_ = "unexpected end of input";
      return false;
    }
    if (depth_ >= kMaxDepth) {
      err_ = "nesting too deep";
      return false;
    }
    const char c = text_[pos_];
    switch (c) {
      case '{': return parse_object(out);
      case '[': return parse_array(out);
      case '"': {
        out.type_ = JsonValue::Type::kString;
        return parse_string(out.string_);
      }
      case 't':
        if (literal("true")) {
          out.type_ = JsonValue::Type::kBool;
          out.bool_ = true;
          return true;
        }
        break;
      case 'f':
        if (literal("false")) {
          out.type_ = JsonValue::Type::kBool;
          out.bool_ = false;
          return true;
        }
        break;
      case 'n':
        if (literal("null")) {
          out.type_ = JsonValue::Type::kNull;
          return true;
        }
        break;
      default: return parse_number(out);
    }
    err_ = "unexpected token";
    return false;
  }

  bool parse_object(JsonValue& out) {
    out.type_ = JsonValue::Type::kObject;
    ++depth_;
    ++pos_;  // '{'
    skip_ws();
    if (eat('}')) {
      --depth_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"' || !parse_string(key)) {
        err_ = "expected object key";
        return false;
      }
      if (!eat(':')) {
        err_ = "expected ':'";
        return false;
      }
      JsonValue member;
      if (!parse_value(member)) return false;
      out.members_.emplace_back(std::move(key), std::move(member));
      if (eat(',')) continue;
      if (eat('}')) {
        --depth_;
        return true;
      }
      err_ = "expected ',' or '}'";
      return false;
    }
  }

  bool parse_array(JsonValue& out) {
    out.type_ = JsonValue::Type::kArray;
    ++depth_;
    ++pos_;  // '['
    skip_ws();
    if (eat(']')) {
      --depth_;
      return true;
    }
    while (true) {
      JsonValue item;
      if (!parse_value(item)) return false;
      out.items_.push_back(std::move(item));
      if (eat(',')) continue;
      if (eat(']')) {
        --depth_;
        return true;
      }
      err_ = "expected ',' or ']'";
      return false;
    }
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              err_ = "bad \\u escape";
              return false;
            }
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else {
                err_ = "bad \\u escape";
                return false;
              }
            }
            // UTF-8 encode the BMP code point (surrogate pairs are not
            // produced by our writer; pass them through as-is).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            err_ = "bad escape";
            return false;
        }
      } else {
        out += c;
      }
    }
    err_ = "unterminated string";
    return false;
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      err_ = "expected number";
      return false;
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0') {
      err_ = "malformed number";
      return false;
    }
    out.type_ = JsonValue::Type::kNumber;
    out.number_ = v;
    std::uint64_t exact = 0;
    const char* const last = token.data() + token.size();
    const auto [stop, ec] = std::from_chars(token.data(), last, exact);
    if (ec == std::errc() && stop == last) out.uint_ = exact;
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
  std::string err_ = "parse error";
};

std::optional<JsonValue> JsonValue::parse(std::string_view text,
                                          std::string* error) {
  return JsonParser(text).run(error);
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue* JsonValue::at(std::size_t i) const noexcept {
  if (type_ != Type::kArray || i >= items_.size()) return nullptr;
  return &items_[i];
}

}  // namespace am
