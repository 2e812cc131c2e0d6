#include "util/flags.hpp"

#include <cstdio>
#include <stdexcept>

namespace qv {

namespace {

/// Run one std::sto* parse and insist it consumed the whole token.
template <typename T, typename Parse>
bool parse_whole(const std::string& token, T* out, Parse parse) {
  try {
    std::size_t used = 0;
    const T v = parse(token, &used);
    if (used != token.size()) return false;
    *out = v;
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

bool parse_int(const std::string& token, std::int64_t* out) {
  return parse_whole(token, out, [](const std::string& s, std::size_t* used) {
    return static_cast<std::int64_t>(std::stoll(s, used));
  });
}

bool parse_u64(const std::string& token, std::uint64_t* out) {
  return parse_whole(token, out, [](const std::string& s, std::size_t* used) {
    return static_cast<std::uint64_t>(std::stoull(s, used));
  });
}

bool parse_double(const std::string& token, double* out) {
  return parse_whole(token, out, [](const std::string& s, std::size_t* used) {
    return std::stod(s, used);
  });
}

void Flags::define_int(const std::string& name, std::int64_t default_value,
                       const std::string& help) {
  Def d;
  d.type = Type::kInt;
  d.help = help;
  d.int_value = default_value;
  d.default_text = std::to_string(default_value);
  defs_[name] = std::move(d);
}

void Flags::define_double(const std::string& name, double default_value,
                          const std::string& help) {
  Def d;
  d.type = Type::kDouble;
  d.help = help;
  d.double_value = default_value;
  d.default_text = std::to_string(default_value);
  defs_[name] = std::move(d);
}

void Flags::define_string(const std::string& name,
                          const std::string& default_value,
                          const std::string& help) {
  Def d;
  d.type = Type::kString;
  d.help = help;
  d.string_value = default_value;
  d.default_text = default_value;
  defs_[name] = std::move(d);
}

void Flags::define_bool(const std::string& name, bool default_value,
                        const std::string& help) {
  Def d;
  d.type = Type::kBool;
  d.help = help;
  d.bool_value = default_value;
  d.default_text = default_value ? "true" : "false";
  defs_[name] = std::move(d);
}

bool Flags::set_value(const std::string& name, const std::string& value) {
  auto it = defs_.find(name);
  if (it == defs_.end()) {
    std::fprintf(stderr, "unknown flag: --%s\n", name.c_str());
    return false;
  }
  Def& d = it->second;
  bool ok = true;
  switch (d.type) {
    case Type::kInt:
      ok = parse_int(value, &d.int_value);
      break;
    case Type::kDouble:
      ok = parse_double(value, &d.double_value);
      break;
    case Type::kString:
      d.string_value = value;
      break;
    case Type::kBool:
      if (value == "true" || value == "1") {
        d.bool_value = true;
      } else if (value == "false" || value == "0") {
        d.bool_value = false;
      } else {
        std::fprintf(stderr, "bad boolean for --%s: %s\n", name.c_str(),
                     value.c_str());
        return false;
      }
      break;
  }
  if (!ok) {
    std::fprintf(stderr, "bad value for --%s: %s\n", name.c_str(),
                 value.c_str());
  }
  return ok;
}

void Flags::print_usage(const char* prog) const {
  std::fprintf(stderr, "usage: %s [flags]\n", prog);
  for (const auto& [name, d] : defs_) {
    const char* type = "";
    switch (d.type) {
      case Type::kInt: type = "int"; break;
      case Type::kDouble: type = "double"; break;
      case Type::kString: type = "string"; break;
      case Type::kBool: type = "bool"; break;
    }
    std::fprintf(stderr, "  --%s (%s, default %s)\n      %s\n", name.c_str(),
                 type, d.default_text.c_str(), d.help.c_str());
  }
}

bool Flags::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(argv[0]);
      help_requested_ = true;
      return true;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr,
                   "unexpected argument: %s (bool flags take "
                   "--name=value, not --name value)\n",
                   arg.c_str());
      return false;
    }
    std::string body = arg.substr(2);
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      if (!set_value(body.substr(0, eq), body.substr(eq + 1))) return false;
      continue;
    }
    // --no-name for booleans.
    if (body.rfind("no-", 0) == 0) {
      auto it = defs_.find(body.substr(3));
      if (it != defs_.end() && it->second.type == Type::kBool) {
        it->second.bool_value = false;
        continue;
      }
    }
    auto it = defs_.find(body);
    if (it == defs_.end()) {
      std::fprintf(stderr, "unknown flag: --%s\n", body.c_str());
      return false;
    }
    if (it->second.type == Type::kBool) {
      it->second.bool_value = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flag --%s needs a value\n", body.c_str());
      return false;
    }
    if (!set_value(body, argv[++i])) return false;
  }
  return true;
}

std::int64_t Flags::get_int(const std::string& name) const {
  return defs_.at(name).int_value;
}

double Flags::get_double(const std::string& name) const {
  return defs_.at(name).double_value;
}

const std::string& Flags::get_string(const std::string& name) const {
  return defs_.at(name).string_value;
}

bool Flags::get_bool(const std::string& name) const {
  return defs_.at(name).bool_value;
}

}  // namespace qv
