// JsonValue + recursive-descent JSON parser (RFC 8259). The writer half of
// the module lives in json.cpp; this file owns the value model and parsing.
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "scada/io/json.hpp"
#include "scada/util/error.hpp"

namespace scada::io {
namespace {

[[noreturn]] void fail(std::size_t offset, const std::string& what) {
  throw ParseError("json: " + what + " at offset " + std::to_string(offset));
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail(pos_, "trailing characters after document");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail(pos_, "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(pos_, std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (++depth_ > kMaxJsonDepth) {
          fail(pos_, "nesting deeper than " + std::to_string(kMaxJsonDepth) + " levels");
        }
        JsonValue v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': return JsonValue::make_string(parse_string());
      case 't':
        if (!consume_literal("true")) fail(pos_, "invalid literal");
        return JsonValue::make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail(pos_, "invalid literal");
        return JsonValue::make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail(pos_, "invalid literal");
        return JsonValue::make_null();
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue obj = JsonValue::make_object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return obj;
      if (c != ',') fail(pos_ - 1, "expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue arr = JsonValue::make_array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return arr;
      if (c != ',') fail(pos_ - 1, "expected ',' or ']' in array");
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail(pos_, "truncated \\u escape");
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<std::size_t>(i)];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned>(c - 'A' + 10);
      else fail(pos_ + static_cast<std::size_t>(i), "invalid \\u escape digit");
    }
    pos_ += 4;
    return value;
  }

  void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail(pos_, "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail(pos_ - 1, "raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: require a low surrogate to follow.
            if (pos_ + 1 < text_.size() && text_[pos_] == '\\' && text_[pos_ + 1] == 'u') {
              pos_ += 2;
              const unsigned lo = parse_hex4();
              if (lo < 0xDC00 || lo > 0xDFFF) fail(pos_ - 4, "invalid low surrogate");
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else {
              fail(pos_, "lone high surrogate");
            }
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail(pos_ - 4, "lone low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: fail(pos_ - 1, "invalid escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const auto digits = [&] {
      std::size_t n = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_, ++n;
      return n;
    };
    const std::size_t int_start = pos_;
    if (digits() == 0) fail(pos_, "invalid number");
    if (text_[int_start] == '0' && pos_ - int_start > 1) fail(int_start, "leading zero");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) fail(pos_, "digits required after decimal point");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (digits() == 0) fail(pos_, "digits required in exponent");
    }
    return JsonValue::make_number(std::string(text_.substr(start, pos_ - start)));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< open arrays/objects around pos_
};

[[noreturn]] void kind_error(const char* wanted) {
  throw ParseError(std::string("json: value is not ") + wanted);
}

#if defined(__cpp_lib_to_chars) && __cpp_lib_to_chars >= 201611L
/// from_chars reported result_out_of_range (and left the output unmodified);
/// saturate like strtod does. The direction follows from the sign of the
/// decimal exponent: positive means overflow (+/-inf), negative underflow
/// (+/-0) — a value with exponent 0 is always representable.
double saturate_out_of_range(std::string_view s) {
  const bool neg = !s.empty() && s.front() == '-';
  if (neg) s.remove_prefix(1);
  long long exp10 = 0;
  if (const std::size_t e = s.find_first_of("eE"); e != std::string_view::npos) {
    std::from_chars(s.data() + e + 1, s.data() + s.size(), exp10);
    s = s.substr(0, e);
  }
  const std::size_t dot = s.find('.');
  const std::string_view int_part = s.substr(0, dot);
  if (int_part != "0") {
    exp10 += static_cast<long long>(int_part.size()) - 1;
  } else {
    const std::string_view frac = dot == std::string_view::npos ? "" : s.substr(dot + 1);
    std::size_t zeros = 0;
    while (zeros < frac.size() && frac[zeros] == '0') ++zeros;
    exp10 -= static_cast<long long>(zeros) + 1;
  }
  const double mag = exp10 > 0 ? std::numeric_limits<double>::infinity() : 0.0;
  return neg ? -mag : mag;
}
#endif

}  // namespace

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::Bool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_number(std::string lexeme) {
  JsonValue v;
  v.kind_ = Kind::Number;
  v.scalar_ = std::move(lexeme);
  return v;
}

JsonValue JsonValue::make_number(std::int64_t n) { return make_number(std::to_string(n)); }

JsonValue JsonValue::make_number(double d) {
  // std::to_chars is locale-independent; snprintf("%.6g") would emit a comma
  // decimal separator under e.g. LC_NUMERIC=de_DE and corrupt the document.
  char buf[64];
#if defined(__cpp_lib_to_chars) && __cpp_lib_to_chars >= 201611L
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, d, std::chars_format::general, 6);
  if (ec == std::errc{}) return make_number(std::string(buf, end));
#endif
  std::snprintf(buf, sizeof buf, "%.6g", d);
  return make_number(std::string(buf));
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::String;
  v.scalar_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::Array;
  v.items_ = std::move(items);
  return v;
}

JsonValue JsonValue::make_object() {
  JsonValue v;
  v.kind_ = Kind::Object;
  return v;
}

bool JsonValue::as_bool() const {
  if (kind_ != Kind::Bool) kind_error("a bool");
  return bool_;
}

std::int64_t JsonValue::as_int() const {
  if (kind_ != Kind::Number) kind_error("a number");
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(scalar_.c_str(), &end, 10);
  if (errno == ERANGE || end == scalar_.c_str() || *end != '\0') {
    throw ParseError("json: number '" + scalar_ + "' is not a 64-bit integer");
  }
  return v;
}

double JsonValue::as_double() const {
  if (kind_ != Kind::Number) kind_error("a number");
  // std::from_chars always parses the C-locale '.' form the grammar
  // guarantees; strtod honours LC_NUMERIC and under a comma-decimal locale
  // would silently truncate "3.14" to 3.
#if defined(__cpp_lib_to_chars) && __cpp_lib_to_chars >= 201611L
  double value = 0.0;
  const char* first = scalar_.data();
  const char* last = first + scalar_.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec == std::errc::result_out_of_range && ptr == last) return saturate_out_of_range(scalar_);
  if (ec == std::errc{} && ptr == last) return value;
  throw ParseError("json: number '" + scalar_ + "' is not a double");
#else
  return std::strtod(scalar_.c_str(), nullptr);
#endif
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::String) kind_error("a string");
  return scalar_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (kind_ != Kind::Array) kind_error("an array");
  return items_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members() const {
  if (kind_ != Kind::Object) kind_error("an object");
  return members_;
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (kind_ != Kind::Object) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void JsonValue::push_back(JsonValue item) {
  if (kind_ != Kind::Array) kind_error("an array");
  items_.push_back(std::move(item));
}

void JsonValue::set(std::string key, JsonValue value) {
  if (kind_ != Kind::Object) kind_error("an object");
  members_.emplace_back(std::move(key), std::move(value));
}

std::string JsonValue::dump() const {
  switch (kind_) {
    case Kind::Null: return "null";
    case Kind::Bool: return bool_ ? "true" : "false";
    case Kind::Number: return scalar_;
    case Kind::String: return json_quote(scalar_);
    case Kind::Array: {
      std::string out = "[";
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out += ",";
        out += items_[i].dump();
      }
      return out + "]";
    }
    case Kind::Object: {
      std::string out = "{";
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out += ",";
        out += json_quote(members_[i].first) + ":" + members_[i].second.dump();
      }
      return out + "}";
    }
  }
  return "null";
}

JsonValue parse_json(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace scada::io
