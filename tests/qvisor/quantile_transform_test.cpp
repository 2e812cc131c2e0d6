#include "qvisor/quantile_transform.hpp"

#include <gtest/gtest.h>

#include <map>

#include "qvisor/backend.hpp"
#include "qvisor/preprocessor.hpp"
#include "qvisor/qvisor.hpp"
#include "qvisor/runtime.hpp"
#include "sched/pifo.hpp"
#include "util/random.hpp"

namespace qv::qvisor {
namespace {

TenantSpec tenant(TenantId id, const std::string& name, Rank lo = 0,
                  Rank hi = 999) {
  TenantSpec spec;
  spec.id = id;
  spec.name = name;
  spec.declared_bounds = {lo, hi};
  return spec;
}

Packet labeled(TenantId t, Rank rank) {
  Packet p;
  p.tenant = t;
  p.rank = rank;
  p.original_rank = rank;
  p.size_bytes = 100;
  return p;
}

// --- BreakpointTransform --------------------------------------------------

TEST(BreakpointTransform, ThresholdsDefineLevels) {
  BreakpointTransform t({10, 20, 30}, /*base=*/100);
  EXPECT_EQ(t.apply(0), 100u);
  EXPECT_EQ(t.apply(9), 100u);
  EXPECT_EQ(t.apply(10), 101u);
  EXPECT_EQ(t.apply(25), 102u);
  EXPECT_EQ(t.apply(30), 103u);
  EXPECT_EQ(t.apply(9999), 103u);
  EXPECT_EQ(t.out_min(), 100u);
  EXPECT_EQ(t.out_max(), 103u);
  EXPECT_EQ(t.levels(), 4u);
}

TEST(BreakpointTransform, FromUniformSamplesMatchesRangeQuantization) {
  std::vector<Rank> samples;
  for (Rank r = 0; r < 1000; ++r) samples.push_back(r);
  const auto t = BreakpointTransform::from_samples(samples, 4, 0);
  EXPECT_EQ(t.apply(0), 0u);
  EXPECT_EQ(t.apply(249), 0u);
  EXPECT_EQ(t.apply(250), 1u);
  EXPECT_EQ(t.apply(999), 3u);
}

TEST(BreakpointTransform, SkewedSamplesEqualizeOccupancy) {
  // 90% of the mass at ranks < 10, 10% spread to 1000.
  std::vector<Rank> samples;
  for (int i = 0; i < 900; ++i) samples.push_back(i % 10);
  for (int i = 0; i < 100; ++i) samples.push_back(10 + i * 9);
  const auto t = BreakpointTransform::from_samples(samples, 10, 0);
  // Feed the same distribution through: each level should receive
  // roughly a tenth of the packets.
  std::map<Rank, int> level_counts;
  for (const Rank s : samples) ++level_counts[t.apply(s)];
  for (const auto& [level, count] : level_counts) {
    EXPECT_GT(count, 30) << "level " << level;
    EXPECT_LT(count, 300) << "level " << level;
  }
}

TEST(BreakpointTransform, MonotoneForAnySampleSet) {
  Rng rng(5);
  std::vector<Rank> samples;
  for (int i = 0; i < 500; ++i) {
    samples.push_back(static_cast<Rank>(rng.next_below(100000)));
  }
  const auto t = BreakpointTransform::from_samples(samples, 64, 7);
  Rank prev = t.apply(0);
  for (Rank r = 0; r < 100000; r += 997) {
    const Rank cur = t.apply(r);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

TEST(BreakpointTransform, PointMassLandsMidBand) {
  // Every sample identical: everything maps to the band's midpoint —
  // fair in expectation against any peer distribution.
  const auto t =
      BreakpointTransform::from_samples(std::vector<Rank>(100, 42), 8, 5);
  EXPECT_EQ(t.apply(0), 9u);    // 5 + level 4 (mid of 8)
  EXPECT_EQ(t.apply(42), 9u);
  EXPECT_EQ(t.apply(100), 9u);
}

// --- from an estimator -------------------------------------------------------

// The transform as built before the one-sort path: one quantile() call
// per window slot.
BreakpointTransform per_q_scan(const RankDistEstimator& est,
                               std::uint32_t levels, Rank base) {
  const std::size_t n = est.samples();
  std::vector<Rank> samples;
  for (std::size_t i = 0; i < n; ++i) {
    samples.push_back(est.quantile(
        n == 1 ? 0.0 : static_cast<double>(i) / static_cast<double>(n - 1)));
  }
  return BreakpointTransform::from_samples(std::move(samples), levels, base);
}

TEST(QuantileTransformFromEstimator, EqualsPerQuantileScan) {
  Rng rng(11);
  for (const std::size_t n : {1u, 2u, 100u, 1000u, 1024u}) {
    RankDistEstimator partial(2 * n);  // n of 2n slots filled
    RankDistEstimator wrapped(n);      // 3n observed, last n kept
    for (std::size_t i = 0; i < 3 * n; ++i) {
      const auto r = static_cast<Rank>(rng.next_below(1u << 20));
      if (i < n) partial.observe(r, static_cast<TimeNs>(i));
      wrapped.observe(r, static_cast<TimeNs>(i));
    }
    for (const RankDistEstimator* est : {&partial, &wrapped}) {
      ASSERT_EQ(est->samples(), n);
      for (const std::uint32_t levels : {4u, 64u, 1024u}) {
        EXPECT_EQ(quantile_transform_from_estimator(*est, levels, 7),
                  per_q_scan(*est, levels, 7))
            << "n " << n << " levels " << levels;
      }
    }
  }
}

TEST(QuantileTransformFromEstimator, SortedCopyWouldMoveBreakpoints) {
  // At n = 1000, i / 999.0 * 999.0 truncates to i - 1 for five slots, so
  // the transform is not the one built from the sorted window itself.
  // With distinct ranks and a level per rank, that shows in the steps.
  RankDistEstimator est(1000);
  for (Rank r = 0; r < 1000; ++r) est.observe(r * 3, r);
  EXPECT_NE(quantile_transform_from_estimator(est, 1024, 0),
            BreakpointTransform::from_samples(est.sorted_window(), 1024, 0));
  EXPECT_EQ(quantile_transform_from_estimator(est, 1024, 0),
            per_q_scan(est, 1024, 0));
}

// --- refinement --------------------------------------------------------------

TEST(QuantileRefine, SwitchesTenantsWithEnoughSamples) {
  Synthesizer synth;
  auto parsed = parse_policy("a + b");
  auto plan = *synth.synthesize({tenant(1, "a"), tenant(2, "b")},
                                *parsed.policy)
                   .plan;
  RankDistEstimator est_a(512);
  for (int i = 0; i < 400; ++i) {
    est_a.observe(static_cast<Rank>(i % 10), i);
  }
  RankDistEstimator est_b(512);  // too few samples
  est_b.observe(5, 0);

  std::unordered_map<TenantId, const RankDistEstimator*> estimators{
      {1, &est_a}, {2, &est_b}};
  std::size_t refined = 0;
  const auto out = refine_with_quantiles(plan, estimators, 128, &refined);
  EXPECT_EQ(refined, 1u);
  EXPECT_TRUE(out.find("a")->quantile.has_value());
  EXPECT_FALSE(out.find("b")->quantile.has_value());
  // Refined output stays inside the band the synthesizer assigned.
  EXPECT_GE(out.find("a")->quantile->out_min(),
            plan.find("a")->transform.out_min());
  EXPECT_LE(out.find("a")->quantile->out_max(),
            plan.find("a")->transform.out_max());
}

TEST(QuantileRefine, RestoresFairnessUnderSkewedDistributions) {
  // Two sharing tenants with identical declared bounds [0, 999] but
  // very different real distributions: A uses only ranks 0..9, B uses
  // the full range uniformly. Range normalization puts all of A at
  // level 0, starving B; quantile normalization restores interleaving.
  Synthesizer synth;
  auto parsed = parse_policy("a + b");
  const std::vector<TenantSpec> tenants = {tenant(1, "a"), tenant(2, "b")};
  auto plan = *synth.synthesize(tenants, *parsed.policy).plan;

  Rng rng(3);
  const auto rank_a = [&] { return static_cast<Rank>(rng.next_below(10)); };
  const auto rank_b = [&] {
    return static_cast<Rank>(rng.next_below(1000));
  };

  const auto measure = [&](const SynthesisPlan& active_plan) {
    Preprocessor pre;
    pre.install(active_plan);
    sched::PifoQueue q;
    Rng traffic_rng(17);
    for (int i = 0; i < 400; ++i) {
      Packet pa = labeled(1, rank_a());
      Packet pb = labeled(2, rank_b());
      pre.process(pa);
      pre.process(pb);
      q.enqueue(pa, 0);
      q.enqueue(pb, 0);
    }
    std::map<TenantId, int> share;
    for (int i = 0; i < 400; ++i) ++share[q.dequeue(0)->tenant];
    (void)traffic_rng;
    return share;
  };

  const auto range_share = measure(plan);
  // Range normalization: A's tiny ranks all map to the band bottom.
  EXPECT_GT(range_share.at(1), 350);

  // Observe both tenants' real distributions, refine, re-measure.
  RankDistEstimator est_a(1024);
  RankDistEstimator est_b(1024);
  for (int i = 0; i < 1000; ++i) {
    est_a.observe(rank_a(), i);
    est_b.observe(rank_b(), i);
  }
  std::unordered_map<TenantId, const RankDistEstimator*> estimators{
      {1, &est_a}, {2, &est_b}};
  const auto refined = refine_with_quantiles(plan, estimators);
  const auto quantile_share = measure(refined);
  EXPECT_NEAR(quantile_share.at(1), 200, 60);
  EXPECT_NEAR(quantile_share.at(2), 200, 60);
}

TEST(QuantileRefine, NoteAddedToPlan) {
  Synthesizer synth;
  auto parsed = parse_policy("a");
  auto plan =
      *synth.synthesize({tenant(1, "a")}, *parsed.policy).plan;
  RankDistEstimator est(512);
  for (int i = 0; i < 200; ++i) est.observe(1, i);
  std::unordered_map<TenantId, const RankDistEstimator*> estimators{
      {1, &est}};
  const auto refined = refine_with_quantiles(plan, estimators);
  bool mentions = false;
  for (const auto& note : refined.notes) {
    if (note.find("quantile") != std::string::npos) mentions = true;
  }
  EXPECT_TRUE(mentions);
}

// --- runtime integration ------------------------------------------------------

TEST(QuantileRuntime, ControllerAppliesRefinement) {
  Hypervisor hv({tenant(1, "a"), tenant(2, "b")},
                *parse_policy("a + b").policy,
                std::make_shared<PifoBackend>());
  ASSERT_TRUE(hv.compile().ok);
  auto port = hv.make_port_scheduler();

  RuntimeConfig cfg;
  cfg.activity_window = milliseconds(100);
  cfg.min_reconfig_interval = 0;
  cfg.quantile_normalization = true;
  cfg.quantile_min_samples = 64;
  HypervisorTarget target(hv);
  RuntimeController rc(target, cfg);

  // Feed skewed traffic so estimators fill.
  Rng rng(9);
  for (int i = 0; i < 300; ++i) {
    Packet pa = labeled(1, static_cast<Rank>(rng.next_below(10)));
    Packet pb = labeled(2, static_cast<Rank>(rng.next_below(1000)));
    port->enqueue(pa, microseconds(i));
    port->enqueue(pb, microseconds(i));
  }
  while (port->dequeue(milliseconds(1))) {
  }

  ASSERT_TRUE(rc.tick(milliseconds(1)));
  ASSERT_TRUE(hv.has_plan());
  EXPECT_TRUE(hv.plan().find("a")->quantile.has_value());
  EXPECT_TRUE(hv.plan().find("b")->quantile.has_value());
}

TEST(InstallRefined, RejectsOutOfSpacePlans) {
  Hypervisor hv({tenant(1, "a")}, *parse_policy("a").policy,
                std::make_shared<PifoBackend>());
  ASSERT_TRUE(hv.compile().ok);
  SynthesisPlan bad = hv.plan();
  bad.tenants[0].quantile =
      BreakpointTransform({1, 2, 3}, bad.rank_space);  // base beyond space
  EXPECT_FALSE(hv.install_refined(bad));
}

}  // namespace
}  // namespace qv::qvisor
