// Minimal streaming JSON writer shared by the metrics and trace
// exporters: handles escaping, comma placement, and non-finite doubles
// (emitted as null) so every exporter produces valid JSON by
// construction.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace qv::obs {

/// JSON string escaping (quotes, backslash, control characters).
std::string json_escape(std::string_view s);

/// True when json_escape(s) would differ from s.
bool json_needs_escape(std::string_view s);

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(out) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Object key; must be followed by a value or begin_*().
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(unsigned v) { return value(static_cast<std::uint64_t>(v)); }
  JsonWriter& value(bool v);
  JsonWriter& null();

  /// Raw pre-rendered JSON (caller guarantees validity).
  JsonWriter& raw(std::string_view json);

 private:
  void separator();

  std::ostream& out_;
  /// One frame per open container: true after the first element.
  std::vector<bool> has_elems_;
  bool after_key_ = false;
};

}  // namespace qv::obs
