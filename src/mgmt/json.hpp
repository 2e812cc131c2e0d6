// Minimal JSON document model for the management plane.
//
// The config store persists operator documents (tenant contracts,
// grouped policies, topology) as JSON, and the journal's crash-recovery
// contract is BYTE-IDENTICAL replay — so the representation must have
// one canonical serialization. JsonValue gets that by construction:
// objects are sorted maps (key order cannot leak insertion history),
// dump() emits no whitespace, and doubles print through one fixed
// format. parse(dump(v)) == v for every value, and dump(parse(t)) is a
// canonical form of t. Strings escape through obs::json_escape, the
// repo's one escaper; the double format stays the store's own, because
// the parse/dump fixed point needs one fixed %.17g + ".0" form while
// obs's shortest round-trip form is what the golden metrics.json
// digests pin.
//
// Deliberately small: null/bool/int64/double/string/array/object, a
// depth-limited recursive-descent parser with position-carrying errors
// (the config-document fuzz stage drives exactly this surface), and
// nothing else. Not a general-purpose JSON library.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace qv::mgmt {

class JsonValue {
 public:
  enum class Type {
    kNull,
    kBool,
    kInt,     ///< exact 64-bit integers (version ids, tenant ids, rates)
    kDouble,  ///< anything with a fraction or exponent
    kString,
    kArray,
    kObject,
  };

  using Array = std::vector<JsonValue>;
  /// Sorted by key — this is what makes dump() canonical.
  using Object = std::map<std::string, JsonValue>;

  JsonValue() : type_(Type::kNull) {}
  JsonValue(bool b) : type_(Type::kBool), bool_(b) {}
  JsonValue(std::int64_t i) : type_(Type::kInt), int_(i) {}
  JsonValue(int i) : type_(Type::kInt), int_(i) {}
  JsonValue(std::uint64_t u)
      : type_(Type::kInt), int_(static_cast<std::int64_t>(u)) {}
  JsonValue(double d) : type_(Type::kDouble), double_(d) {}
  JsonValue(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  JsonValue(const char* s) : type_(Type::kString), string_(s) {}
  JsonValue(Array a) : type_(Type::kArray), array_(std::move(a)) {}
  JsonValue(Object o) : type_(Type::kObject), object_(std::move(o)) {}

  static JsonValue make_array() { return JsonValue(Array{}); }
  static JsonValue make_object() { return JsonValue(Object{}); }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_int() const { return type_ == Type::kInt; }
  bool is_double() const { return type_ == Type::kDouble; }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool() const { return bool_; }
  std::int64_t as_int() const { return int_; }
  /// Numeric value regardless of int/double representation.
  double as_double() const {
    return type_ == Type::kInt ? static_cast<double>(int_) : double_;
  }
  const std::string& as_string() const { return string_; }
  const Array& as_array() const { return array_; }
  Array& as_array() { return array_; }
  const Object& as_object() const { return object_; }
  Object& as_object() { return object_; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const {
    if (type_ != Type::kObject) return nullptr;
    const auto it = object_.find(key);
    return it == object_.end() ? nullptr : &it->second;
  }

  /// Set an object member (value must be an object).
  void set(std::string key, JsonValue v) {
    object_.insert_or_assign(std::move(key), std::move(v));
  }

  /// Canonical serialization: sorted object keys, no whitespace, fixed
  /// double format. The byte-identity contract of the store rests on
  /// dump() being a pure function of the value.
  std::string dump() const;
  void dump_to(std::string& out) const;

  friend bool operator==(const JsonValue& a, const JsonValue& b);
  friend bool operator!=(const JsonValue& a, const JsonValue& b) {
    return !(a == b);
  }

 private:
  Type type_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

struct JsonParseResult {
  std::optional<JsonValue> value;
  std::string error;
  std::size_t error_pos = 0;  ///< byte offset into the input

  bool ok() const { return value.has_value(); }
};

/// Strict parse of one JSON document (trailing garbage is an error).
/// `max_depth` bounds nesting so fuzzed "[[[[..." cannot blow the
/// stack. Duplicate object keys are an error (a duplicate would make
/// dump() silently drop data).
JsonParseResult parse_json(std::string_view text, std::size_t max_depth = 64);

/// FNV-1a over a byte string — the checksum the journal frames records
/// with and the store fingerprints documents with.
std::uint64_t fnv1a(std::string_view bytes);

}  // namespace qv::mgmt
