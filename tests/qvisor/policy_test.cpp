#include "qvisor/policy.hpp"

#include <gtest/gtest.h>

namespace qv::qvisor {
namespace {

TEST(PolicyParser, SingleTenant) {
  auto r = parse_policy("T1");
  ASSERT_TRUE(r.ok()) << r.error;
  ASSERT_EQ(r.policy->tiers().size(), 1u);
  ASSERT_EQ(r.policy->tiers()[0].groups.size(), 1u);
  EXPECT_EQ(r.policy->tiers()[0].groups[0].tenants,
            (std::vector<std::string>{"T1"}));
}

TEST(PolicyParser, PaperExample) {
  // §3.1: "T1 >> T2 > T3 + T4 >> T5"
  auto r = parse_policy("T1 >> T2 > T3 + T4 >> T5");
  ASSERT_TRUE(r.ok()) << r.error;
  const auto& tiers = r.policy->tiers();
  ASSERT_EQ(tiers.size(), 3u);
  EXPECT_EQ(tiers[0].groups.size(), 1u);
  EXPECT_EQ(tiers[0].groups[0].tenants,
            (std::vector<std::string>{"T1"}));
  ASSERT_EQ(tiers[1].groups.size(), 2u);
  EXPECT_EQ(tiers[1].groups[0].tenants,
            (std::vector<std::string>{"T2"}));
  EXPECT_EQ(tiers[1].groups[1].tenants,
            (std::vector<std::string>{"T3", "T4"}));
  EXPECT_EQ(tiers[2].groups[0].tenants,
            (std::vector<std::string>{"T5"}));
}

TEST(PolicyParser, Fig1Example) {
  // Fig. 1: "T1 >> T2 + T3".
  auto r = parse_policy("T1 >> T2 + T3");
  ASSERT_TRUE(r.ok()) << r.error;
  ASSERT_EQ(r.policy->tiers().size(), 2u);
  EXPECT_EQ(r.policy->tiers()[1].groups[0].tenants,
            (std::vector<std::string>{"T2", "T3"}));
}

TEST(PolicyParser, WhitespaceIsFree) {
  auto a = parse_policy("T1>>T2>T3+T4");
  auto b = parse_policy("  T1  >>  T2  >  T3  +  T4  ");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a.policy, *b.policy);
}

TEST(PolicyParser, IdentifierCharacters) {
  auto r = parse_policy("tenant_a + tenant-b > x9");
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.policy->tenant_names(),
            (std::vector<std::string>{"tenant_a", "tenant-b", "x9"}));
}

TEST(PolicyParser, EmptyInputFails) {
  EXPECT_FALSE(parse_policy("").ok());
  EXPECT_FALSE(parse_policy("   ").ok());
}

TEST(PolicyParser, DanglingOperatorFails) {
  EXPECT_FALSE(parse_policy("T1 >>").ok());
  EXPECT_FALSE(parse_policy("T1 +").ok());
  EXPECT_FALSE(parse_policy(">> T1").ok());
  EXPECT_FALSE(parse_policy("+ T1").ok());
}

TEST(PolicyParser, DoubleOperatorFails) {
  EXPECT_FALSE(parse_policy("T1 >> >> T2").ok());
  EXPECT_FALSE(parse_policy("T1 + + T2").ok());
}

TEST(PolicyParser, DuplicateTenantFails) {
  const auto r = parse_policy("T1 >> T2 + T1");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("T1"), std::string::npos);
}

TEST(PolicyParser, IllegalCharacterFails) {
  EXPECT_FALSE(parse_policy("T1 & T2").ok());
  EXPECT_FALSE(parse_policy("1T").ok());  // must start with letter/underscore
}

TEST(PolicyParser, ErrorPositionPointsAtProblem) {
  const auto r = parse_policy("T1 >> ");
  ASSERT_FALSE(r.ok());
  EXPECT_GE(r.error_pos, 3u);
}

TEST(PolicyParser, NestedOrWeightedExpressionFails) {
  for (const char* text : {"(A >> B) + C", "A * 2 + B"}) {
    const auto r = parse_policy(text);
    EXPECT_FALSE(r.ok()) << text;
    EXPECT_NE(r.error.find("flat policy language cannot express"),
              std::string::npos)
        << text << ": " << r.error;
  }
}

TEST(PolicyParser, RedundantParenthesesParseFlat) {
  const auto bracketed = parse_policy("(A) >> B");
  const auto plain = parse_policy("A >> B");
  ASSERT_TRUE(bracketed.ok()) << bracketed.error;
  ASSERT_TRUE(plain.ok()) << plain.error;
  EXPECT_EQ(*bracketed.policy, *plain.policy);
}

TEST(Policy, TenantNamesInPolicyOrder) {
  auto r = parse_policy("B >> A + C > D");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.policy->tenant_names(),
            (std::vector<std::string>{"B", "A", "C", "D"}));
}

TEST(Policy, TierOf) {
  auto r = parse_policy("T1 >> T2 + T3 >> T4");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.policy->tier_of("T1"), 0u);
  EXPECT_EQ(r.policy->tier_of("T2"), 1u);
  EXPECT_EQ(r.policy->tier_of("T3"), 1u);
  EXPECT_EQ(r.policy->tier_of("T4"), 2u);
  EXPECT_FALSE(r.policy->tier_of("nope").has_value());
  EXPECT_TRUE(r.policy->mentions("T3"));
  EXPECT_FALSE(r.policy->mentions("T9"));
}

TEST(Policy, RestrictedToDropsAbsentTenants) {
  auto r = parse_policy("T1 >> T2 + T3 >> T4");
  ASSERT_TRUE(r.ok());
  const auto restricted = r.policy->restricted_to({"T2", "T4"});
  EXPECT_EQ(restricted.to_string(), "T2 >> T4");
}

TEST(Policy, RestrictedToCollapsesEmptyTiers) {
  auto r = parse_policy("T1 >> T2 >> T3");
  ASSERT_TRUE(r.ok());
  const auto restricted = r.policy->restricted_to({"T3"});
  ASSERT_EQ(restricted.tiers().size(), 1u);
  EXPECT_EQ(restricted.to_string(), "T3");
}

TEST(Policy, RestrictedToEverythingIsIdentity) {
  auto r = parse_policy("T1 >> T2 > T3 + T4");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.policy->restricted_to({"T1", "T2", "T3", "T4"}), *r.policy);
}

TEST(Policy, RestrictedToNothingIsEmpty) {
  auto r = parse_policy("T1 + T2");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.policy->restricted_to({}).empty());
}

// Round-trip property over a grammar-covering set of policies.
class PolicyRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(PolicyRoundTrip, ParsePrintParseIsIdentity) {
  auto first = parse_policy(GetParam());
  ASSERT_TRUE(first.ok()) << first.error;
  const std::string printed = first.policy->to_string();
  auto second = parse_policy(printed);
  ASSERT_TRUE(second.ok()) << second.error;
  EXPECT_EQ(*first.policy, *second.policy) << printed;
}

INSTANTIATE_TEST_SUITE_P(
    Grammar, PolicyRoundTrip,
    ::testing::Values("T1", "T1 + T2", "T1 > T2", "T1 >> T2",
                      "T1 >> T2 > T3 + T4 >> T5",
                      "a + b + c + d",
                      "a > b > c > d",
                      "a >> b >> c >> d",
                      "x1 + y2 > z3 >> w4 + v5 > u6"));

}  // namespace
}  // namespace qv::qvisor
