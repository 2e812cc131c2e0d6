#include "qvisor/hierarchy.hpp"

#include "qvisor/preprocessor.hpp"
#include "qvisor/static_analysis.hpp"

#include <gtest/gtest.h>

#include <map>

namespace qv::qvisor {
namespace {

TenantSpec tenant(TenantId id, const std::string& name, Rank lo = 0,
                  Rank hi = 99) {
  TenantSpec spec;
  spec.id = id;
  spec.name = name;
  spec.declared_bounds = {lo, hi};
  return spec;
}

Packet labeled(TenantId t, Rank rank, std::int32_t bytes = 100) {
  Packet p;
  p.tenant = t;
  p.rank = rank;
  p.original_rank = rank;
  p.size_bytes = bytes;
  return p;
}

PolicyExpr expr(const std::string& text) {
  auto r = parse_policy_expr(text);
  EXPECT_TRUE(r.ok()) << r.error;
  return *r.expr;
}

// --- TreeCompiler -----------------------------------------------------

TEST(TreeCompiler, LeafPerTenant) {
  TreeCompiler compiler;
  const auto result = compiler.compile(
      expr("(a >> b) + c"),
      {tenant(1, "a"), tenant(2, "b"), tenant(3, "c")});
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.spec->leaf_count(), 3u);
  EXPECT_EQ(result.leaf_of.at("a"), 0u);
  EXPECT_EQ(result.leaf_of.at("b"), 1u);
  EXPECT_EQ(result.leaf_of.at("c"), 2u);
}

TEST(TreeCompiler, UnknownTenantFails) {
  TreeCompiler compiler;
  EXPECT_FALSE(compiler.compile(expr("a + ghost"),
                                {tenant(1, "a")}).ok());
}

TEST(TreeCompiler, UnmentionedTenantFails) {
  TreeCompiler compiler;
  EXPECT_FALSE(
      compiler.compile(expr("a"), {tenant(1, "a"), tenant(2, "b")}).ok());
}

TEST(TreeScheduler, IsolationExactUnderHierarchy) {
  // vip strictly above a weighted pair.
  TreeCompiler compiler;
  const std::vector<TenantSpec> tenants = {
      tenant(1, "vip"), tenant(2, "a"), tenant(3, "b")};
  const auto compiled =
      compiler.compile(expr("vip >> a * 2 + b"), tenants);
  ASSERT_TRUE(compiled.ok()) << compiled.error;
  auto q = make_tree_scheduler(compiled, tenants);

  q->enqueue(labeled(2, 0), 0);
  q->enqueue(labeled(3, 0), 0);
  q->enqueue(labeled(1, 99), 0);  // vip, worst rank — still first
  EXPECT_EQ(q->dequeue(0)->tenant, 1u);
}

TEST(TreeScheduler, WeightedShareHonored) {
  TreeCompiler compiler;
  const std::vector<TenantSpec> tenants = {tenant(1, "heavy"),
                                           tenant(2, "light")};
  const auto compiled = compiler.compile(expr("heavy * 3 + light"), tenants);
  ASSERT_TRUE(compiled.ok()) << compiled.error;
  auto q = make_tree_scheduler(compiled, tenants);
  for (int i = 0; i < 40; ++i) {
    q->enqueue(labeled(1, 0), 0);
    q->enqueue(labeled(2, 0), 0);
  }
  std::map<TenantId, int> first;
  for (int i = 0; i < 24; ++i) ++first[q->dequeue(0)->tenant];
  EXPECT_NEAR(first[1], 18, 2);
  EXPECT_NEAR(first[2], 6, 2);
}

TEST(TreeScheduler, PreferIsBestEffortNotStarvation) {
  TreeCompiler compiler(/*prefer_weight_ratio=*/4.0);
  const std::vector<TenantSpec> tenants = {tenant(1, "pref"),
                                           tenant(2, "other")};
  const auto compiled = compiler.compile(expr("pref > other"), tenants);
  ASSERT_TRUE(compiled.ok()) << compiled.error;
  auto q = make_tree_scheduler(compiled, tenants);
  for (int i = 0; i < 100; ++i) {
    q->enqueue(labeled(1, 0), 0);
    q->enqueue(labeled(2, 0), 0);
  }
  std::map<TenantId, int> first;
  for (int i = 0; i < 50; ++i) ++first[q->dequeue(0)->tenant];
  EXPECT_GT(first[1], first[2] * 2);  // clearly preferred...
  EXPECT_GT(first[2], 0);             // ...but never starved
}

TEST(TreeScheduler, NestedShareServedAsAUnit) {
  // (a >> b) + c : the pair is ONE sharer — together they get half the
  // bandwidth, and within their half a strictly precedes b. This is
  // the semantics a flattened single PIFO cannot express.
  TreeCompiler compiler;
  const std::vector<TenantSpec> tenants = {tenant(1, "a"), tenant(2, "b"),
                                           tenant(3, "c")};
  const auto compiled = compiler.compile(expr("(a >> b) + c"), tenants);
  ASSERT_TRUE(compiled.ok()) << compiled.error;
  auto q = make_tree_scheduler(compiled, tenants);
  for (int i = 0; i < 30; ++i) {
    q->enqueue(labeled(1, 5), 0);
    q->enqueue(labeled(2, 0), 0);  // b outranks a, but a >> b inside
    q->enqueue(labeled(3, 0), 0);
  }
  std::map<TenantId, int> first;
  std::size_t first_b = 99999;
  std::size_t last_a = 0;
  for (std::size_t i = 0; i < 60; ++i) {
    const auto p = q->dequeue(0);
    ++first[p->tenant];
    if (p->tenant == 2 && i < first_b) first_b = i;
    if (p->tenant == 1) last_a = i;
  }
  // c got ~half; the pair shared the other half with a before b.
  EXPECT_NEAR(first[3], 30, 2);
  EXPECT_GT(first[1], 25);           // a consumed the pair's share
  EXPECT_GT(first_b, last_a);        // no b packet before a drained
}

TEST(TreeCompiler, NotesMentionExactDeployment) {
  TreeCompiler compiler;
  const auto compiled = compiler.compile(
      expr("a > b"), {tenant(1, "a"), tenant(2, "b")});
  ASSERT_TRUE(compiled.ok());
  bool mentions_tree = false;
  bool mentions_prefer = false;
  for (const auto& note : compiled.notes) {
    if (note.find("PIFO tree") != std::string::npos) mentions_tree = true;
    if (note.find("best-effort") != std::string::npos) {
      mentions_prefer = true;
    }
  }
  EXPECT_TRUE(mentions_tree);
  EXPECT_TRUE(mentions_prefer);
}

// --- flattening ------------------------------------------------------------

TEST(Flatten, FlatExpressionMatchesSynthesizerSemantics) {
  SynthesizerConfig cfg;
  cfg.levels_per_group = 16;
  const std::vector<TenantSpec> tenants = {tenant(1, "a"), tenant(2, "b")};
  const auto result = flatten_to_plan(expr("a >> b"), tenants, cfg);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_TRUE(result.approximations.empty());
  const auto* a = result.plan->find("a");
  const auto* b = result.plan->find("b");
  EXPECT_LT(a->transform.out_max(), b->transform.out_min());
  ASSERT_EQ(result.plan->tier_bands.size(), 2u);
}

TEST(Flatten, NestedShareReportsApproximation) {
  const std::vector<TenantSpec> tenants = {tenant(1, "a"), tenant(2, "b"),
                                           tenant(3, "c")};
  const auto result = flatten_to_plan(expr("(a >> b) + c"), tenants);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_FALSE(result.approximations.empty());
  // Within the shared band, a still strictly precedes b...
  const auto* a = result.plan->find("a");
  const auto* b = result.plan->find("b");
  const auto* c = result.plan->find("c");
  EXPECT_LT(a->transform.out_max(), b->transform.out_min());
  // ...and c overlaps the pair (the approximation).
  EXPECT_LE(c->transform.out_min(), b->transform.out_max());
}

TEST(Flatten, WeightsReported) {
  const std::vector<TenantSpec> tenants = {tenant(1, "a"), tenant(2, "b"),
                                           tenant(3, "c")};
  // A tenant's weight, and a weighted sub-expression's.
  for (const char* text : {"a * 2 + b + c", "(a >> b) * 2 + c"}) {
    const auto result = flatten_to_plan(expr(text), tenants);
    ASSERT_TRUE(result.ok());
    bool mentions_weight = false;
    for (const auto& note : result.approximations) {
      if (note.find("weight") != std::string::npos) mentions_weight = true;
    }
    EXPECT_TRUE(mentions_weight) << text;
  }
}

TEST(Flatten, DegradesToFitRankSpace) {
  SynthesizerConfig cfg;
  cfg.rank_space = 64;
  cfg.levels_per_group = 4096;
  const std::vector<TenantSpec> tenants = {tenant(1, "a"), tenant(2, "b")};
  const auto result = flatten_to_plan(expr("a >> b"), tenants, cfg);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_LT(result.plan->find("b")->transform.out_max(), cfg.rank_space);
  EXPECT_FALSE(result.approximations.empty());
}

TEST(Flatten, UnknownTenantFails) {
  EXPECT_FALSE(flatten_to_plan(expr("a + ghost"),
                               {tenant(1, "a")}).ok());
}

TEST(Flatten, SpecNamesMatchTheExpressionBothWays) {
  // A spec the expression does not mention would fall to the
  // unknown-tenant path at run time; the synthesizer rejects it too.
  const auto unmentioned = flatten_to_plan(
      expr("a >> b"), {tenant(1, "a"), tenant(2, "b"), tenant(3, "c")});
  EXPECT_FALSE(unmentioned.ok());
  EXPECT_NE(unmentioned.error.find("c"), std::string::npos);
  EXPECT_FALSE(flatten_to_plan(expr("a"), {tenant(1, "a"), tenant(2, "a")})
                   .ok());
  EXPECT_FALSE(flatten_to_plan(expr("a"), {tenant(1, "a"), tenant(2, "")})
                   .ok());
}

TEST(Flatten, PositionsFollowTheStrata) {
  // Tier: the top-level '>>' part; group: the tier's '>' part; index:
  // the tenant's place among its group's tenants.
  const auto result = flatten_to_plan(
      expr("a >> (b >> c) > d + e"),
      {tenant(1, "a"), tenant(2, "b"), tenant(3, "c"), tenant(4, "d"),
       tenant(5, "e")});
  ASSERT_TRUE(result.ok()) << result.error;
  const std::map<std::string, std::vector<std::size_t>> want = {
      {"a", {0, 0, 0}}, {"b", {1, 0, 0}}, {"c", {1, 0, 1}},
      {"d", {1, 1, 0}}, {"e", {1, 1, 1}}};
  for (const auto& [name, pos] : want) {
    const auto* tp = result.plan->find(name);
    ASSERT_NE(tp, nullptr) << name;
    EXPECT_EQ((std::vector<std::size_t>{tp->tier, tp->group,
                                        tp->index_in_group}),
              pos)
        << name;
  }
}

TEST(Flatten, AnalyzerSeesThePreferenceOfAFlattenedPlan) {
  const std::vector<TenantSpec> tenants = {tenant(1, "a"), tenant(2, "b"),
                                           tenant(3, "c")};
  const auto result = flatten_to_plan(expr("a > b + c"), tenants);
  ASSERT_TRUE(result.ok()) << result.error;
  const auto report = StaticAnalyzer().analyze(*result.plan, tenants);
  EXPECT_FALSE(report.has_violations()) << report.to_string();
  EXPECT_NE(report.to_string().find("[WARN] preference"), std::string::npos)
      << report.to_string();
}

TEST(Flatten, DegradedNestedPlanUsesLargestLevelCountThatFits) {
  // "(a >> b) + c" takes two bands: 2 * 50 levels fill 100 ranks
  // exactly, where halving from 256 would stop at 32.
  SynthesizerConfig cfg;
  cfg.rank_space = 100;
  cfg.levels_per_group = 256;
  const auto result = flatten_to_plan(
      expr("(a >> b) + c"), {tenant(1, "a"), tenant(2, "b"), tenant(3, "c")},
      cfg);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_TRUE(result.plan->degraded);
  EXPECT_EQ(result.plan->find("a")->transform.levels(), 50u);
  EXPECT_EQ(result.plan->find("b")->transform.out_max(), 99u);
}

TEST(Flatten, PlanInstallsIntoPreprocessor) {
  const std::vector<TenantSpec> tenants = {tenant(1, "a"), tenant(2, "b"),
                                           tenant(3, "c")};
  const auto result = flatten_to_plan(expr("(a >> b) + c"), tenants);
  ASSERT_TRUE(result.ok());
  Preprocessor pre;
  pre.install(*result.plan);
  Packet pa = labeled(1, 0);
  Packet pb = labeled(2, 0);
  ASSERT_TRUE(pre.process(pa));
  ASSERT_TRUE(pre.process(pb));
  EXPECT_LT(pa.rank, pb.rank);
}

}  // namespace
}  // namespace qv::qvisor
