#include "mgmt/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/json_writer.hpp"

namespace qv::mgmt {

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a 64-bit offset basis
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// --- serialization ----------------------------------------------------------

void JsonValue::dump_to(std::string& out) const {
  switch (type_) {
    case Type::kNull:
      out += "null";
      return;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Type::kInt: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%lld",
                    static_cast<long long>(int_));
      out += buf;
      return;
    }
    case Type::kDouble: {
      // Non-finite doubles have no JSON spelling; emit null (the same
      // convention obs::JsonWriter uses).
      if (!std::isfinite(double_)) {
        out += "null";
        return;
      }
      char buf[40];
      // %.17g round-trips every double; one fixed format keeps dump()
      // canonical.
      std::snprintf(buf, sizeof(buf), "%.17g", double_);
      out += buf;
      // An integral-valued double would reparse as an int ("150E000"
      // -> 150.0 -> "150"); keep it in the double domain so the dump
      // is a parse/dump fixed point.
      if (out.find_first_of(".eE", out.size() - std::strlen(buf)) ==
          std::string::npos) {
        out += ".0";
      }
      return;
    }
    case Type::kString:
      out += '"' + obs::json_escape(string_) + '"';
      return;
    case Type::kArray: {
      out += '[';
      bool first = true;
      for (const JsonValue& v : array_) {
        if (!first) out += ',';
        first = false;
        v.dump_to(out);
      }
      out += ']';
      return;
    }
    case Type::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [k, v] : object_) {
        if (!first) out += ',';
        first = false;
        out += '"' + obs::json_escape(k) + "\":";
        v.dump_to(out);
      }
      out += '}';
      return;
    }
  }
}

std::string JsonValue::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

bool operator==(const JsonValue& a, const JsonValue& b) {
  if (a.type_ != b.type_) return false;
  switch (a.type_) {
    case JsonValue::Type::kNull: return true;
    case JsonValue::Type::kBool: return a.bool_ == b.bool_;
    case JsonValue::Type::kInt: return a.int_ == b.int_;
    case JsonValue::Type::kDouble: return a.double_ == b.double_;
    case JsonValue::Type::kString: return a.string_ == b.string_;
    case JsonValue::Type::kArray: return a.array_ == b.array_;
    case JsonValue::Type::kObject: return a.object_ == b.object_;
  }
  return false;
}

// --- parser -----------------------------------------------------------------

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::size_t max_depth)
      : text_(text), max_depth_(max_depth) {}

  JsonParseResult run() {
    JsonParseResult result;
    skip_ws();
    JsonValue v;
    if (!parse_value(v, 0)) {
      result.error = error_;
      result.error_pos = error_pos_;
      return result;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      result.error = "trailing characters after document";
      result.error_pos = pos_;
      return result;
    }
    result.value = std::move(v);
    return result;
  }

 private:
  bool fail(const std::string& msg) {
    // Keep the FIRST error; nested unwinding must not overwrite it.
    if (error_.empty()) {
      error_ = msg;
      error_pos_ = pos_;
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return fail("invalid literal");
    }
    pos_ += word.size();
    return true;
  }

  bool parse_value(JsonValue& out, std::size_t depth) {
    if (depth > max_depth_) return fail("nesting too deep");
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case 'n':
        if (!literal("null")) return false;
        out = JsonValue();
        return true;
      case 't':
        if (!literal("true")) return false;
        out = JsonValue(true);
        return true;
      case 'f':
        if (!literal("false")) return false;
        out = JsonValue(false);
        return true;
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out = JsonValue(std::move(s));
        return true;
      }
      case '[': return parse_array(out, depth);
      case '{': return parse_object(out, depth);
      default: return parse_number(out);
    }
  }

  bool parse_array(JsonValue& out, std::size_t depth) {
    ++pos_;  // '['
    JsonValue::Array items;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      out = JsonValue(std::move(items));
      return true;
    }
    while (true) {
      skip_ws();
      JsonValue v;
      if (!parse_value(v, depth + 1)) return false;
      items.push_back(std::move(v));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        out = JsonValue(std::move(items));
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  bool parse_object(JsonValue& out, std::size_t depth) {
    ++pos_;  // '{'
    JsonValue::Object members;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      out = JsonValue(std::move(members));
      return true;
    }
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return fail("expected object key");
      }
      std::string key;
      if (!parse_string(key)) return false;
      if (members.count(key) != 0) return fail("duplicate object key");
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return fail("expected ':' after object key");
      }
      ++pos_;
      skip_ws();
      JsonValue v;
      if (!parse_value(v, depth + 1)) return false;
      members.emplace(std::move(key), std::move(v));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        out = JsonValue(std::move(members));
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  void append_utf8(std::uint32_t cp, std::string& s) {
    if (cp < 0x80) {
      s += static_cast<char>(cp);
    } else if (cp < 0x800) {
      s += static_cast<char>(0xC0 | (cp >> 6));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      s += static_cast<char>(0xE0 | (cp >> 12));
      s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      s += static_cast<char>(0xF0 | (cp >> 18));
      s += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool parse_hex4(std::uint32_t& out) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<std::size_t>(i)];
      out <<= 4;
      if (c >= '0' && c <= '9') out |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f')
        out |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        out |= static_cast<std::uint32_t>(c - 'A' + 10);
      else return fail("bad hex digit in \\u escape");
    }
    pos_ += 4;
    return true;
  }

  bool parse_string(std::string& out) {
    ++pos_;  // '"'
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) return fail("truncated escape");
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
          std::uint32_t cp = 0;
          if (!parse_hex4(cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return fail("unpaired surrogate");
            }
            pos_ += 2;
            std::uint32_t lo = 0;
            if (!parse_hex4(lo)) return false;
            if (lo < 0xDC00 || lo > 0xDFFF) {
              return fail("invalid low surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("unpaired surrogate");
          }
          append_utf8(cp, out);
          break;
        }
        default: return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size() ||
        !(text_[pos_] >= '0' && text_[pos_] <= '9')) {
      pos_ = start;
      return fail("invalid value");
    }
    // Leading zero must stand alone ("0", "0.5"): "007" is not JSON.
    if (text_[pos_] == '0' && pos_ + 1 < text_.size() &&
        text_[pos_ + 1] >= '0' && text_[pos_ + 1] <= '9') {
      return fail("leading zero in number");
    }
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    bool is_double = false;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      is_double = true;
      ++pos_;
      if (pos_ >= text_.size() ||
          !(text_[pos_] >= '0' && text_[pos_] <= '9')) {
        return fail("digits required after decimal point");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' &&
             text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_double = true;
      ++pos_;
      if (pos_ < text_.size() &&
          (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          !(text_[pos_] >= '0' && text_[pos_] <= '9')) {
        return fail("digits required in exponent");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' &&
             text_[pos_] <= '9') {
        ++pos_;
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (!is_double) {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno != ERANGE && end == token.c_str() + token.size()) {
        out = JsonValue(static_cast<std::int64_t>(v));
        return true;
      }
      // Out of int64 range: fall through to double.
    }
    errno = 0;
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return fail("bad number");
    // JSON has no spelling for infinity: a magnitude that overflows
    // double ("1e50000") is rejected rather than silently saturated.
    if (!std::isfinite(d)) return fail("number out of range");
    out = JsonValue(d);
    return true;
  }

  std::string_view text_;
  std::size_t max_depth_;
  std::size_t pos_ = 0;
  std::string error_;
  std::size_t error_pos_ = 0;
};

}  // namespace

JsonParseResult parse_json(std::string_view text, std::size_t max_depth) {
  return Parser(text, max_depth).run();
}

}  // namespace qv::mgmt
