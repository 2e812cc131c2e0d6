#include "obs/json_writer.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>

namespace qv::obs {

std::string json_escape(std::string_view s) {
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
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
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
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool json_needs_escape(std::string_view s) {
  for (const char c : s) {
    if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) {
      return true;
    }
  }
  return false;
}

void JsonWriter::separator() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!has_elems_.empty()) {
    if (has_elems_.back()) out_ << ',';
    has_elems_.back() = true;
  }
}

JsonWriter& JsonWriter::begin_object() {
  separator();
  out_ << '{';
  has_elems_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  has_elems_.pop_back();
  out_ << '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  separator();
  out_ << '[';
  has_elems_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  has_elems_.pop_back();
  out_ << ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  separator();
  out_ << '"' << json_escape(k) << "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  separator();
  out_ << '"' << json_escape(v) << '"';
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  separator();
  if (!std::isfinite(v)) {
    out_ << "null";
    return *this;
  }
  // Shortest round-trippable form: %.17g always round-trips but is
  // noisy; try %.15g first and fall back when it loses precision.
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.15g", v);
  double back = 0;
  std::sscanf(buf, "%lf", &back);
  if (back != v) std::snprintf(buf, sizeof(buf), "%.17g", v);
  out_ << buf;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  separator();
  out_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  separator();
  out_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  separator();
  out_ << (v ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::null() {
  separator();
  out_ << "null";
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  separator();
  out_ << json;
  return *this;
}

}  // namespace qv::obs
