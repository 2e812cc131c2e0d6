// Group compiler: grouped policy -> O(groups) transform table +
// O(1) tenant -> group index (ISSUE 7 tentpole, pillar 2).
#include "control/group_compiler.hpp"

#include <gtest/gtest.h>

namespace qv::control {
namespace {

CompiledGroupPlan must_compile(const std::string& text,
                               qvisor::SynthesizerConfig cfg = {}) {
  const auto r = GroupCompiler(cfg).compile_text(text);
  EXPECT_TRUE(r.ok()) << r.error << "\n" << text;
  return r.ok() ? *r.plan : CompiledGroupPlan{};
}

TEST(GroupCompiler, TableIsGroupSizedNotTenantSized) {
  // A million tenants, three groups: the table must be O(3).
  const CompiledGroupPlan plan = must_compile(
      "group gold   = 0..999\n"
      "group silver = 1000..99999\n"
      "group bulk   = *\n"
      "policy gold >> silver + bulk\n");
  EXPECT_EQ(plan.group_count(), 3u);
  EXPECT_EQ(plan.table.tenants.size(), 3u);
  EXPECT_EQ(plan.fingerprints.size(), 3u);
  // Ordinal indexing: tenants[g].tenant == g, in declaration order.
  for (std::uint32_t g = 0; g < plan.group_count(); ++g) {
    EXPECT_EQ(plan.table.tenants[g].tenant, g);
  }
  EXPECT_EQ(plan.table.tenants[0].name, "gold");
  EXPECT_EQ(plan.table.tenants[2].name, "bulk");
  // Tier bands: gold strictly above {silver, bulk}.
  ASSERT_EQ(plan.table.tier_bands.size(), 2u);
  EXPECT_LT(plan.table.tier_bands[0].hi, plan.table.tier_bands[1].lo);
  EXPECT_EQ(plan.table.tenants[1].tier, plan.table.tenants[2].tier);
}

TEST(GroupCompiler, IndexResolvesEveryTenant) {
  const CompiledGroupPlan plan = must_compile(
      "group gold   = 0..999, 5000\n"
      "group silver = 1000..4999\n"
      "group bulk   = *\n"
      "policy gold >> silver >> bulk\n");
  ASSERT_NE(plan.index, nullptr);
  const GroupIndex& idx = *plan.index;
  EXPECT_EQ(idx.lookup(0), 0u);
  EXPECT_EQ(idx.lookup(999), 0u);
  EXPECT_EQ(idx.lookup(5000), 0u);
  EXPECT_EQ(idx.lookup(1000), 1u);
  EXPECT_EQ(idx.lookup(4999), 1u);
  // Everything else falls to the catch-all, dense and spill alike.
  EXPECT_EQ(idx.lookup(5001), 2u);
  EXPECT_EQ(idx.lookup(123'456'789), 2u);
  EXPECT_EQ(idx.lookup(0xfffffffeu), 2u);
  EXPECT_EQ(idx.catch_all(), 2u);
}

TEST(GroupCompiler, NoCatchAllLeavesGapsUnknown) {
  const CompiledGroupPlan plan = must_compile(
      "group a = 0..9\ngroup b = 20..29\npolicy a >> b\n");
  EXPECT_EQ(plan.index->lookup(5), 0u);
  EXPECT_EQ(plan.index->lookup(25), 1u);
  EXPECT_EQ(plan.index->lookup(15), kInvalidGroup);
  EXPECT_EQ(plan.index->lookup(1'000'000), kInvalidGroup);
}

TEST(GroupCompiler, SpillRangesBeyondDenseLimit) {
  // A range straddling the dense ceiling splits: dense part in the
  // array, remainder in the sorted spill list.
  const TenantId limit = GroupIndex::kDenseLimit;
  const std::string text =
      "group low = 0.." + std::to_string(limit - 1) + "\n" +
      "group high = " + std::to_string(limit) + "..4000000000\n" +
      "policy low >> high\n";
  const CompiledGroupPlan plan = must_compile(text);
  EXPECT_EQ(plan.index->dense_entries(), limit);
  EXPECT_EQ(plan.index->spill_ranges(), 1u);
  EXPECT_EQ(plan.index->lookup(limit - 1), 0u);
  EXPECT_EQ(plan.index->lookup(limit), 1u);
  EXPECT_EQ(plan.index->lookup(3'999'999'999u), 1u);
  EXPECT_EQ(plan.index->lookup(4'000'000'001u), kInvalidGroup);
}

TEST(GroupCompiler, MemoryIsGroupsPlusDenseIndex) {
  // 1M tenants in 64 groups: table bytes must not scale with tenants.
  std::string text;
  const std::size_t tenants = 1'000'000, groups = 64;
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t lo = g * tenants / groups;
    const std::size_t hi = (g + 1) * tenants / groups - 1;
    text += "group g" + std::to_string(g) + " = " + std::to_string(lo) +
            ".." + std::to_string(hi) + "\n";
  }
  text += "policy g0";
  for (std::size_t g = 1; g < groups; ++g) text += " + g" + std::to_string(g);
  text += "\n";
  const CompiledGroupPlan plan = must_compile(text);
  EXPECT_EQ(plan.group_count(), groups);
  EXPECT_LT(plan.table_bytes(), 64u * 1024u);  // O(groups), ~KBs
  // The dense index is the only O(tenants) piece: 4 bytes per id.
  EXPECT_GE(plan.index_bytes(), tenants * sizeof(GroupId));
  EXPECT_LT(plan.index_bytes(), tenants * sizeof(GroupId) + 64u * 1024u);
}

TEST(GroupCompiler, GroupBoundsAndWeightsReachSynthesizer) {
  const CompiledGroupPlan plan = must_compile(
      "group a = 0..9 bounds 0..63\n"
      "group b = 10..19 weight 3\n"
      "group c = 20..29\n"
      "policy a >> b + c\n");
  // Declared bounds narrow the input domain the transform maps from.
  const auto& a = plan.table.tenants[0].transform;
  EXPECT_EQ(a.apply(0), plan.table.tier_bands[0].lo);
  EXPECT_LE(a.apply(63), plan.table.tier_bands[0].hi);
  // Weighted sharing: b and c share a band but keep distinct specs.
  EXPECT_NE(plan.fingerprints[1], plan.fingerprints[2]);
}

TEST(GroupCompiler, CompileTextReportsBothStages) {
  GroupCompiler c;
  const auto parse_err = c.compile_text("group a = 9..0\npolicy a\n");
  EXPECT_FALSE(parse_err.ok());
  EXPECT_NE(parse_err.error.find("parse:"), std::string::npos)
      << parse_err.error;
  // Valid grammar, impossible layout: 3 isolation tiers in 2 ranks.
  qvisor::SynthesizerConfig tiny;
  tiny.rank_space = 2;
  const auto synth_err = GroupCompiler(tiny).compile_text(
      "group a = 0..9\ngroup b = 10..19\ngroup c = 20..29\n"
      "policy a >> b >> c\n");
  EXPECT_FALSE(synth_err.ok());
  EXPECT_EQ(synth_err.error.find("parse:"), std::string::npos)
      << synth_err.error;
}

TEST(GroupCompiler, CanonicalSourceSurvivesRoundTrip) {
  const CompiledGroupPlan plan = must_compile(
      "# comment\ngroup a = 0..9 weight 2\ngroup b = *\npolicy a >> b\n");
  const CompiledGroupPlan again = must_compile(plan.source);
  EXPECT_EQ(plan.source, again.source);
  EXPECT_EQ(plan.fingerprints, again.fingerprints);
  EXPECT_EQ(plan.index->fingerprint(), again.index->fingerprint());
}

// --- diff_group_plans ------------------------------------------------------

TEST(GroupPlanDiff, IdenticalPlansDiffEmpty) {
  const CompiledGroupPlan a = must_compile(
      "group a = 0..9\ngroup b = *\npolicy a >> b\n");
  const CompiledGroupPlan b = must_compile(
      "group a = 0..9\ngroup b = *\npolicy a >> b\n");
  const GroupPlanDelta d = diff_group_plans(a, b);
  EXPECT_TRUE(d.empty());
}

TEST(GroupPlanDiff, WeightChangeTouchesOnlyThatGroup) {
  const CompiledGroupPlan from = must_compile(
      "group a = 0..9\ngroup b = 10..19\ngroup c = *\npolicy a >> b + c\n");
  const CompiledGroupPlan to = must_compile(
      "group a = 0..9\ngroup b = 10..19 weight 2\ngroup c = *\n"
      "policy a >> b + c\n");
  const GroupPlanDelta d = diff_group_plans(from, to);
  EXPECT_FALSE(d.full);
  EXPECT_FALSE(d.index_changed);  // membership untouched
  ASSERT_FALSE(d.changed_groups.empty());
  for (const std::uint32_t g : d.changed_groups) EXPECT_NE(g, 0u);
}

TEST(GroupPlanDiff, MembershipMoveChangesIndexOnly) {
  const CompiledGroupPlan from = must_compile(
      "group a = 0..9\ngroup b = 10..19\npolicy a >> b\n");
  const CompiledGroupPlan to = must_compile(
      "group a = 0..14\ngroup b = 15..19\npolicy a >> b\n");
  const GroupPlanDelta d = diff_group_plans(from, to);
  EXPECT_FALSE(d.full);
  EXPECT_TRUE(d.index_changed);
  // Spans are part of each group's spec fingerprint, so both report
  // changed — the table rows re-install alongside the index swap.
  EXPECT_EQ(d.changed_groups.size(), 2u);
}

TEST(GroupPlanDiff, GroupCountChangeIsStructural) {
  const CompiledGroupPlan from = must_compile(
      "group a = 0..9\ngroup b = *\npolicy a >> b\n");
  const CompiledGroupPlan to = must_compile(
      "group a = 0..9\ngroup b = 10..19\ngroup c = *\npolicy a >> b >> c\n");
  EXPECT_TRUE(diff_group_plans(from, to).full);
  EXPECT_TRUE(diff_group_plans(to, from).full);
}

TEST(GroupPlanDiff, TierLayoutMoveIsStructural) {
  const CompiledGroupPlan from = must_compile(
      "group a = 0..9\ngroup b = *\npolicy a >> b\n");
  const CompiledGroupPlan to = must_compile(
      "group a = 0..9\ngroup b = *\npolicy a + b\n");
  EXPECT_TRUE(diff_group_plans(from, to).full);
}

}  // namespace
}  // namespace qv::control
