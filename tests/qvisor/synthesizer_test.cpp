#include "qvisor/synthesizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "qvisor/hierarchy.hpp"
#include "util/random.hpp"

namespace qv::qvisor {
namespace {

TenantSpec tenant(TenantId id, const std::string& name, Rank lo, Rank hi) {
  TenantSpec spec;
  spec.id = id;
  spec.name = name;
  spec.declared_bounds = {lo, hi};
  return spec;
}

OperatorPolicy policy(const std::string& text) {
  auto r = parse_policy(text);
  EXPECT_TRUE(r.ok()) << r.error;
  return *r.policy;
}

TEST(Synthesizer, SingleTenantGetsWholeBandAtBase0) {
  Synthesizer synth;
  auto r = synth.synthesize({tenant(1, "A", 0, 999)}, policy("A"));
  ASSERT_TRUE(r.ok()) << r.error;
  ASSERT_EQ(r.plan->tenants.size(), 1u);
  EXPECT_EQ(r.plan->tenants[0].transform.out_min(), 0u);
  EXPECT_FALSE(r.plan->degraded);
}

TEST(Synthesizer, IsolationTiersAreDisjointAndOrdered) {
  Synthesizer synth;
  auto r = synth.synthesize(
      {tenant(1, "A", 0, 999), tenant(2, "B", 0, 999),
       tenant(3, "C", 0, 999)},
      policy("A >> B >> C"));
  ASSERT_TRUE(r.ok()) << r.error;
  const auto* a = r.plan->find("A");
  const auto* b = r.plan->find("B");
  const auto* c = r.plan->find("C");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(c, nullptr);
  EXPECT_LT(a->transform.out_max(), b->transform.out_min());
  EXPECT_LT(b->transform.out_max(), c->transform.out_min());
}

TEST(Synthesizer, SharingTenantsGetSameBand) {
  Synthesizer synth;
  auto r = synth.synthesize(
      {tenant(1, "A", 0, 100), tenant(2, "B", 500, 900)},
      policy("A + B"));
  ASSERT_TRUE(r.ok()) << r.error;
  const auto* a = r.plan->find("A");
  const auto* b = r.plan->find("B");
  EXPECT_EQ(a->transform.out_min(), b->transform.out_min());
  EXPECT_EQ(a->transform.out_max(), b->transform.out_max());
}

TEST(Synthesizer, PreferenceGroupsOverlapWithBias) {
  SynthesizerConfig cfg;
  cfg.levels_per_group = 100;
  cfg.pref_bias = 25;
  Synthesizer synth(cfg);
  auto r = synth.synthesize(
      {tenant(1, "A", 0, 999), tenant(2, "B", 0, 999)},
      policy("A > B"));
  ASSERT_TRUE(r.ok()) << r.error;
  const auto* a = r.plan->find("A");
  const auto* b = r.plan->find("B");
  EXPECT_EQ(b->transform.out_min() - a->transform.out_min(), 25u);
  // Overlap: B's best packets can beat A's worst (best-effort priority).
  EXPECT_LT(b->transform.out_min(), a->transform.out_max());
}

TEST(Synthesizer, PaperExamplePolicyLayout) {
  SynthesizerConfig cfg;
  cfg.levels_per_group = 16;
  Synthesizer synth(cfg);
  auto r = synth.synthesize(
      {tenant(1, "T1", 0, 9), tenant(2, "T2", 0, 9),
       tenant(3, "T3", 0, 9), tenant(4, "T4", 0, 9),
       tenant(5, "T5", 0, 9)},
      policy("T1 >> T2 > T3 + T4 >> T5"));
  ASSERT_TRUE(r.ok()) << r.error;
  ASSERT_EQ(r.plan->tier_bands.size(), 3u);
  // T1 strictly above everything.
  const auto* t1 = r.plan->find("T1");
  for (const char* name : {"T2", "T3", "T4", "T5"}) {
    EXPECT_LT(t1->transform.out_max(),
              r.plan->find(name)->transform.out_min());
  }
  // T5 strictly below everything.
  const auto* t5 = r.plan->find("T5");
  for (const char* name : {"T1", "T2", "T3", "T4"}) {
    EXPECT_GT(t5->transform.out_min(),
              r.plan->find(name)->transform.out_max());
  }
  // T3 and T4 share one band.
  EXPECT_EQ(r.plan->find("T3")->transform.out_min(),
            r.plan->find("T4")->transform.out_min());
}

TEST(Synthesizer, StaggerReproducesFig3Interleave) {
  SynthesizerConfig cfg;
  cfg.levels_per_group = 3;
  cfg.share_stagger = 1;
  Synthesizer synth(cfg);
  auto r = synth.synthesize(
      {tenant(1, "T1", 7, 9), tenant(2, "T2", 1, 3),
       tenant(3, "T3", 3, 5)},
      policy("T1 >> T2 + T3"));
  ASSERT_TRUE(r.ok()) << r.error;
  const auto& t2 = r.plan->find("T2")->transform;
  const auto& t3 = r.plan->find("T3")->transform;
  EXPECT_EQ(t3.out_min(), t2.out_min() + 1);  // staggered by one level
}

TEST(Synthesizer, UnknownTenantInPolicyFails) {
  Synthesizer synth;
  auto r = synth.synthesize({tenant(1, "A", 0, 9)}, policy("A >> GHOST"));
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("GHOST"), std::string::npos);
}

TEST(Synthesizer, UnmentionedTenantFails) {
  Synthesizer synth;
  auto r = synth.synthesize(
      {tenant(1, "A", 0, 9), tenant(2, "B", 0, 9)}, policy("A"));
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("B"), std::string::npos);
}

TEST(Synthesizer, DuplicateSpecFails) {
  Synthesizer synth;
  auto r = synth.synthesize(
      {tenant(1, "A", 0, 9), tenant(2, "A", 0, 9)}, policy("A"));
  EXPECT_FALSE(r.ok());
}

TEST(Synthesizer, EmptyPolicyFails) {
  Synthesizer synth;
  auto r = synth.synthesize({tenant(1, "A", 0, 9)}, OperatorPolicy{});
  EXPECT_FALSE(r.ok());
}

TEST(Synthesizer, DegradesQuantizationWhenSpaceTight) {
  SynthesizerConfig cfg;
  cfg.rank_space = 64;          // tiny "hardware"
  cfg.levels_per_group = 4096;  // wildly over budget
  Synthesizer synth(cfg);
  auto r = synth.synthesize(
      {tenant(1, "A", 0, 999), tenant(2, "B", 0, 999)},
      policy("A >> B"));
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.plan->degraded);
  EXPECT_FALSE(r.plan->notes.empty());
  // Still isolated and within the rank space.
  const auto* a = r.plan->find("A");
  const auto* b = r.plan->find("B");
  EXPECT_LT(a->transform.out_max(), b->transform.out_min());
  EXPECT_LT(b->transform.out_max(), cfg.rank_space);
}

TEST(Synthesizer, FailsWhenRankSpaceHopeless) {
  SynthesizerConfig cfg;
  cfg.rank_space = 2;  // cannot hold 3 isolated tiers even at 1 level
  Synthesizer synth(cfg);
  auto r = synth.synthesize(
      {tenant(1, "A", 0, 9), tenant(2, "B", 0, 9), tenant(3, "C", 0, 9)},
      policy("A >> B >> C"));
  EXPECT_FALSE(r.ok());
}

TEST(Synthesizer, NotesDescribeGuarantees) {
  Synthesizer synth;
  auto r = synth.synthesize(
      {tenant(1, "A", 0, 9), tenant(2, "B", 0, 9), tenant(3, "C", 0, 9)},
      policy("A >> B + C"));
  ASSERT_TRUE(r.ok());
  bool mentions_isolation = false;
  bool mentions_share = false;
  for (const auto& note : r.plan->notes) {
    if (note.find("isolated") != std::string::npos) {
      mentions_isolation = true;
    }
    if (note.find("share") != std::string::npos) mentions_share = true;
  }
  EXPECT_TRUE(mentions_isolation);
  EXPECT_TRUE(mentions_share);
}

// Property: for random policies and random tenant rank streams within
// declared bounds, every '>>' relation holds for every pair of sampled
// packets — the worst-case isolation guarantee (§2 Idea 2).
class SynthesizerIsolation : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SynthesizerIsolation, RandomizedWorstCaseIsolationHolds) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    // Random tenants with random bounds.
    const int n = 2 + static_cast<int>(rng.next_below(5));
    std::vector<TenantSpec> specs;
    for (int i = 0; i < n; ++i) {
      const Rank lo = static_cast<Rank>(rng.next_below(10000));
      const Rank hi = lo + static_cast<Rank>(rng.next_below(100000));
      specs.push_back(tenant(static_cast<TenantId>(i + 1),
                             "t" + std::to_string(i), lo, hi));
    }
    // Random policy: each tenant randomly extends group / tier.
    std::string text = specs[0].name;
    for (int i = 1; i < n; ++i) {
      const auto op = rng.next_below(3);
      text += op == 0 ? " + " : (op == 1 ? " > " : " >> ");
      text += specs[i].name;
    }
    Synthesizer synth;
    auto r = synth.synthesize(specs, policy(text));
    ASSERT_TRUE(r.ok()) << text << ": " << r.error;

    // Sample ranks and check the tier ordering on transformed values.
    for (int sample = 0; sample < 200; ++sample) {
      const auto& pa =
          r.plan->tenants[rng.next_below(r.plan->tenants.size())];
      const auto& pb =
          r.plan->tenants[rng.next_below(r.plan->tenants.size())];
      if (pa.tier >= pb.tier) continue;
      const auto& ba = pa.transform.input_bounds();
      const auto& bb = pb.transform.input_bounds();
      const Rank ra = ba.min + static_cast<Rank>(rng.next_below(
                                   static_cast<std::uint64_t>(ba.max) -
                                   ba.min + 1));
      const Rank rb = bb.min + static_cast<Rank>(rng.next_below(
                                   static_cast<std::uint64_t>(bb.max) -
                                   bb.min + 1));
      EXPECT_LT(pa.transform.apply(ra), pb.transform.apply(rb))
          << text << " tenants " << pa.name << "/" << pb.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SynthesizerIsolation,
                         ::testing::Values(101, 202, 303, 404, 505));

// Seeded flat policies over the layout's whole input space: 1-8
// tenants, all three operators, rank spaces 64..2^20, 3..4096 levels,
// stagger 0 and 1, auto or explicit preference bias.
struct FlatCase {
  std::vector<TenantSpec> specs;
  OperatorPolicy policy;
  SynthesizerConfig config;
};

FlatCase random_flat_case(Rng& rng) {
  FlatCase c;
  const int n = 1 + static_cast<int>(rng.next_below(8));
  std::string text;
  for (int i = 0; i < n; ++i) {
    const Rank lo = static_cast<Rank>(rng.next_below(1000));
    const Rank hi = lo + static_cast<Rank>(rng.next_below(100000));
    c.specs.push_back(tenant(static_cast<TenantId>(i + 1),
                             "t" + std::to_string(i), lo, hi));
    if (i > 0) {
      const auto op = rng.next_below(3);
      text += op == 0 ? " + " : (op == 1 ? " > " : " >> ");
    }
    text += c.specs.back().name;
  }
  c.policy = policy(text);
  const auto bits = static_cast<unsigned>(6 + rng.next_below(15));
  c.config.rank_space = std::min<Rank>(
      (1u << bits) + static_cast<Rank>(rng.next_below(1u << bits)),
      1u << 20);
  c.config.levels_per_group = std::min<std::uint32_t>(
      4096, 3 + static_cast<std::uint32_t>(rng.next_below(
                    1u << (2 + rng.next_below(11)))));
  c.config.share_stagger = static_cast<std::uint32_t>(rng.next_below(2));
  c.config.pref_bias =
      rng.next_below(2) == 0
          ? 0
          : 1 + static_cast<std::uint32_t>(rng.next_below(64));
  return c;
}

/// Every field of a synthesis result, one line per item.
std::string describe(const Synthesizer::Result& r) {
  std::ostringstream out;
  if (!r.ok()) {
    out << "error " << r.error << "\n";
    return out.str();
  }
  const SynthesisPlan& p = *r.plan;
  for (const auto& tp : p.tenants) {
    const auto in = tp.transform.input_bounds();
    out << "tenant " << tp.tenant << " " << tp.name << " " << tp.tier
        << " " << tp.group << " " << tp.index_in_group << " " << in.min
        << " " << in.max << " " << tp.transform.levels() << " "
        << tp.transform.base() << " " << tp.transform.stride() << " "
        << tp.quantile.has_value() << "\n";
  }
  for (const auto& band : p.tier_bands) {
    out << "band " << band.lo << " " << band.hi << "\n";
  }
  out << "space " << p.rank_space << " policy " << p.policy.to_string()
      << " degraded " << p.degraded << "\n";
  for (const auto& note : p.notes) out << "note " << note << "\n";
  return out.str();
}

// Pins the band layout: the digest over 4,000 seeded flat policies of
// every plan field, notes included, as the synthesizer produced it
// before the layout walk was unified with the flattener's.
TEST(Synthesizer, PlansPinnedAcrossSeededFlatPolicies) {
  Rng rng(20231);
  std::uint64_t digest = 0xcbf29ce484222325ull;  // FNV-1a
  std::size_t degraded = 0;
  std::size_t failed = 0;
  for (int i = 0; i < 4000; ++i) {
    const FlatCase c = random_flat_case(rng);
    const auto r = Synthesizer(c.config).synthesize(c.specs, c.policy);
    if (!r.ok()) ++failed;
    if (r.ok() && r.plan->degraded) ++degraded;
    for (const unsigned char ch : describe(r)) {
      digest = (digest ^ ch) * 0x100000001b3ull;
    }
  }
  // The mix exercises all three outcomes.
  EXPECT_GT(degraded, 400u);
  EXPECT_GT(failed, 0u);
  EXPECT_EQ(digest, 0x051a1b733a3e37bdull) << std::hex << digest;
}

// The flattener runs the same walk: a flat expression flattens to
// exactly the synthesized plan, degraded ones included.
TEST(Synthesizer, FlattenedFlatPolicyIsTheSynthesizedPlan) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const FlatCase c = random_flat_case(rng);
    const std::string text = c.policy.to_string();
    const auto synth = Synthesizer(c.config).synthesize(c.specs, c.policy);
    const auto flat =
        flatten_to_plan(*parse_policy_expr(text).expr, c.specs, c.config);
    ASSERT_EQ(flat.ok(), synth.ok()) << text;
    if (!synth.ok()) continue;
    EXPECT_EQ(*flat.plan, *synth.plan) << text;
    EXPECT_EQ(flat.approximations.empty(), !synth.plan->degraded) << text;
  }
}

}  // namespace
}  // namespace qv::qvisor
