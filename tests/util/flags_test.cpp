#include "util/flags.hpp"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace qv
