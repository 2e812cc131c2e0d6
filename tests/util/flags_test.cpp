#include "util/flags.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace qv {
namespace {

/// Build an argv vector from string literals.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    for (auto& s : storage_) ptrs_.push_back(s.data());
  }
  int argc() const { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> ptrs_;
};

TEST(Flags, DefaultsWhenUnset) {
  Flags f;
  f.define_int("count", 7, "a count");
  f.define_double("load", 0.5, "a load");
  f.define_string("name", "x", "a name");
  f.define_bool("verbose", false, "verbosity");
  Argv a({"prog"});
  ASSERT_TRUE(f.parse(a.argc(), a.argv()));
  EXPECT_EQ(f.get_int("count"), 7);
  EXPECT_DOUBLE_EQ(f.get_double("load"), 0.5);
  EXPECT_EQ(f.get_string("name"), "x");
  EXPECT_FALSE(f.get_bool("verbose"));
}

TEST(Flags, EqualsSyntax) {
  Flags f;
  f.define_int("count", 0, "");
  f.define_double("load", 0, "");
  Argv a({"prog", "--count=42", "--load=0.75"});
  ASSERT_TRUE(f.parse(a.argc(), a.argv()));
  EXPECT_EQ(f.get_int("count"), 42);
  EXPECT_DOUBLE_EQ(f.get_double("load"), 0.75);
}

TEST(Flags, SpaceSyntax) {
  Flags f;
  f.define_string("name", "", "");
  Argv a({"prog", "--name", "hello"});
  ASSERT_TRUE(f.parse(a.argc(), a.argv()));
  EXPECT_EQ(f.get_string("name"), "hello");
}

TEST(Flags, BoolFormsAndNegation) {
  Flags f;
  f.define_bool("fast", false, "");
  f.define_bool("slow", true, "");
  Argv a({"prog", "--fast", "--no-slow"});
  ASSERT_TRUE(f.parse(a.argc(), a.argv()));
  EXPECT_TRUE(f.get_bool("fast"));
  EXPECT_FALSE(f.get_bool("slow"));
}

TEST(Flags, BoolExplicitValues) {
  Flags f;
  f.define_bool("x", false, "");
  Argv a({"prog", "--x=true"});
  ASSERT_TRUE(f.parse(a.argc(), a.argv()));
  EXPECT_TRUE(f.get_bool("x"));
  Flags g;
  g.define_bool("x", true, "");
  Argv b({"prog", "--x=0"});
  ASSERT_TRUE(g.parse(b.argc(), b.argv()));
  EXPECT_FALSE(g.get_bool("x"));
}

TEST(Flags, UnknownFlagFails) {
  Flags f;
  f.define_int("count", 0, "");
  Argv a({"prog", "--typo=3"});
  EXPECT_FALSE(f.parse(a.argc(), a.argv()));
}

TEST(Flags, BadIntValueFails) {
  Flags f;
  f.define_int("count", 0, "");
  Argv a({"prog", "--count=abc"});
  EXPECT_FALSE(f.parse(a.argc(), a.argv()));
}

TEST(Flags, MissingValueFails) {
  Flags f;
  f.define_int("count", 0, "");
  Argv a({"prog", "--count"});
  EXPECT_FALSE(f.parse(a.argc(), a.argv()));
}

TEST(Flags, SpaceSeparatedBoolValueFails) {
  // A bool flag takes no separate value, so "false" is a stray argument:
  // rejected rather than read as --x (true) plus a dropped token.
  Flags f;
  f.define_bool("x", false, "");
  Argv a({"prog", "--x", "false"});
  EXPECT_FALSE(f.parse(a.argc(), a.argv()));
}

TEST(Flags, HelpRequested) {
  Flags f;
  f.define_int("n", 1, "help text");
  Argv a({"prog", "--help"});
  ASSERT_TRUE(f.parse(a.argc(), a.argv()));
  EXPECT_TRUE(f.help_requested());
}

TEST(Flags, TrailingCharactersRejected) {
  // std::stoll / std::stod stop at the first bad character; a flag
  // value must be the whole token, in both the = and the space form.
  const std::vector<std::vector<std::string>> bad = {
      {"prog", "--jobs=2x"},
      {"prog", "--jobs", "2x"},
      {"prog", "--load=0.3abc"},
      {"prog", "--load", "0.3 "},
  };
  for (const auto& args : bad) {
    Flags f;
    f.define_int("jobs", 0, "");
    f.define_double("load", 0.5, "");
    Argv a(args);
    EXPECT_FALSE(f.parse(a.argc(), a.argv())) << args.back();
    EXPECT_EQ(f.get_int("jobs"), 0) << args.back();
    EXPECT_DOUBLE_EQ(f.get_double("load"), 0.5) << args.back();
  }
}

TEST(Flags, StrictNumericParses) {
  std::int64_t i = 0;
  EXPECT_TRUE(parse_int("-3", &i));
  EXPECT_EQ(i, -3);
  EXPECT_FALSE(parse_int("", &i));
  EXPECT_FALSE(parse_int("7 ", &i));
  EXPECT_FALSE(parse_int("99999999999999999999", &i));
  std::uint64_t u = 0;
  EXPECT_TRUE(parse_u64("1337", &u));
  EXPECT_EQ(u, 1337u);
  EXPECT_FALSE(parse_u64("13x", &u));
  double d = 0;
  EXPECT_TRUE(parse_double("0.25", &d));
  EXPECT_DOUBLE_EQ(d, 0.25);
  EXPECT_FALSE(parse_double("0.25.", &d));
  EXPECT_FALSE(parse_double("abc", &d));
}

TEST(Flags, HelpPrintsTheDeclaredDefault) {
  // --help after a set flag documents the default, not the value the
  // command line already assigned.
  Flags f;
  f.define_int("jobs", 0, "parallel cells");
  f.define_double("load", 0.5, "a load");
  Argv a({"prog", "--jobs", "-3", "--load=0.9", "--help"});
  ::testing::internal::CaptureStderr();
  ASSERT_TRUE(f.parse(a.argc(), a.argv()));
  const std::string usage = ::testing::internal::GetCapturedStderr();
  EXPECT_TRUE(f.help_requested());
  EXPECT_NE(usage.find("--jobs (int, default 0)"), std::string::npos)
      << usage;
  EXPECT_NE(usage.find("--load (double, default 0.500000)"),
            std::string::npos)
      << usage;
  EXPECT_EQ(usage.find("-3"), std::string::npos) << usage;
}

}  // namespace
}  // namespace qv
