// Tiny command-line flag parser for example and bench binaries.
//
// Supports `--name=value`, `--name value` (non-bool flags only), and
// boolean `--name` / `--no-name` / `--name=value`. Unknown flags and
// stray arguments are errors so typos do not silently run the default
// experiment: `--fused false` is rejected rather than read as `--fused`
// plus a dropped `false`. Numeric values must be whole tokens:
// `--jobs 2x` is rejected rather than read as `--jobs 2`.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace qv {

/// Whole-token numeric parses with std::stoll / stoull / stod syntax:
/// false on an empty token, trailing characters or overflow. Flags and
/// the experiment grid's list parsers share them.
bool parse_int(const std::string& token, std::int64_t* out);
bool parse_u64(const std::string& token, std::uint64_t* out);
bool parse_double(const std::string& token, double* out);

class Flags {
 public:
  /// Parse argv. Returns false (and prints to stderr) on malformed or
  /// unknown flags and on stray non-flag arguments; callers should exit
  /// non-zero.
  bool parse(int argc, char** argv);

  /// Declare flags before parse(); declaration supplies the default and
  /// the help text printed by `--help`.
  void define_int(const std::string& name, std::int64_t default_value,
                  const std::string& help);
  void define_double(const std::string& name, double default_value,
                     const std::string& help);
  void define_string(const std::string& name, const std::string& default_value,
                     const std::string& help);
  void define_bool(const std::string& name, bool default_value,
                   const std::string& help);

  std::int64_t get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  const std::string& get_string(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  /// True if --help was requested; parse() already printed usage.
  bool help_requested() const { return help_requested_; }

 private:
  enum class Type { kInt, kDouble, kString, kBool };

  struct Def {
    Type type;
    std::string help;
    std::string default_text;  ///< the declared default, for --help
    std::int64_t int_value = 0;
    double double_value = 0.0;
    std::string string_value;
    bool bool_value = false;
  };

  bool set_value(const std::string& name, const std::string& value);
  void print_usage(const char* prog) const;

  std::map<std::string, Def> defs_;
  bool help_requested_ = false;
};

}  // namespace qv
