#include "qvisor/rank_distribution.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/random.hpp"

namespace qv::qvisor {
namespace {

TEST(RankDistEstimator, EmptyState) {
  RankDistEstimator est(16);
  EXPECT_TRUE(est.empty());
  EXPECT_EQ(est.samples(), 0u);
  EXPECT_EQ(est.quantile(0.5), 0u);
  EXPECT_TRUE(est.sorted_window().empty());
  EXPECT_DOUBLE_EQ(est.rate_pps(milliseconds(1)), 0.0);
}

TEST(RankDistEstimator, BoundsOverWindow) {
  RankDistEstimator est(16);
  est.observe(50, 0);
  est.observe(10, 1);
  est.observe(90, 2);
  const auto b = est.bounds();
  EXPECT_EQ(b.min, 10u);
  EXPECT_EQ(b.max, 90u);
  EXPECT_EQ(est.samples(), 3u);
  EXPECT_EQ(est.last_observation(), 2);
}

TEST(RankDistEstimator, WindowEvictsOldest) {
  RankDistEstimator est(4);
  for (Rank r : {100u, 200u, 300u, 400u}) est.observe(r, 0);
  // Overwrite the oldest (100) with a small value.
  est.observe(5, 1);
  const auto b = est.bounds();
  EXPECT_EQ(b.min, 5u);
  EXPECT_EQ(b.max, 400u);
  EXPECT_EQ(est.samples(), 4u);  // capped at window size
}

TEST(RankDistEstimator, QuantilesAreOrderStatistics) {
  RankDistEstimator est(128);
  for (Rank r = 0; r < 100; ++r) est.observe(r, r);
  EXPECT_EQ(est.quantile(0.0), 0u);
  EXPECT_EQ(est.quantile(1.0), 99u);
  EXPECT_EQ(est.quantile(0.5), 49u);  // index floor(0.5 * 99)
}

// quantile(q) is the order statistic at floor(q * (n - 1)) of the
// current window, for every window length and whether or not the ring
// has wrapped; sorted_window() is that window in ascending order.
TEST(RankDistEstimator, QuantileIsExactOrderStatisticOfWindow) {
  Rng rng(42);
  for (std::size_t n = 1; n <= 1024; ++n) {
    // Alternate duplicate-heavy and nearly-distinct rank ranges.
    const std::uint64_t range = n % 2 == 0 ? 64 : 1u << 20;
    const std::size_t extra = 1 + rng.next_below(n);
    RankDistEstimator partial(1024);  // n of 1024 slots filled
    RankDistEstimator wrapped(n);     // n + extra observed, last n kept
    std::vector<Rank> all;
    for (std::size_t i = 0; i < n + extra; ++i) {
      all.push_back(static_cast<Rank>(rng.next_below(range)));
    }
    for (std::size_t i = 0; i < n; ++i) {
      partial.observe(all[i], static_cast<TimeNs>(i));
    }
    for (std::size_t i = 0; i < all.size(); ++i) {
      wrapped.observe(all[i], static_cast<TimeNs>(i));
    }
    std::vector<Rank> head(all.begin(), all.begin() + n);
    std::vector<Rank> tail(all.end() - n, all.end());
    std::sort(head.begin(), head.end());
    std::sort(tail.begin(), tail.end());
    ASSERT_EQ(partial.sorted_window(), head) << "n " << n;
    ASSERT_EQ(wrapped.sorted_window(), tail) << "n " << n;
    for (const double q : {0.0, 0.01, 0.25, 0.5, 0.99, 1.0}) {
      const auto idx = static_cast<std::size_t>(q * static_cast<double>(n - 1));
      ASSERT_EQ(partial.quantile(q), head[idx]) << "n " << n << " q " << q;
      ASSERT_EQ(wrapped.quantile(q), tail[idx]) << "n " << n << " q " << q;
    }
  }
}

TEST(RankDistEstimator, RateOverWindowSpan) {
  RankDistEstimator est(128);
  // 11 packets across 10 us -> 1.1 M pps over the span.
  for (int i = 0; i <= 10; ++i) {
    est.observe(1, microseconds(i));
  }
  EXPECT_NEAR(est.rate_pps(microseconds(10)), 1.1e6, 1e5);
}

TEST(RankDistEstimator, ResetClears) {
  RankDistEstimator est(16);
  est.observe(42, 5);
  est.reset();
  EXPECT_TRUE(est.empty());
  EXPECT_EQ(est.last_observation(), 0);
  est.observe(7, 9);
  EXPECT_EQ(est.bounds().min, 7u);
  EXPECT_EQ(est.bounds().max, 7u);
}

}  // namespace
}  // namespace qv::qvisor
