// Sharded run-to-completion dataplane: conservation books, determinism
// across repeated runs and shard counts, pipelined vs fused
// equivalence, books pinned at two burst sizes, and the obs export.
#include "dataplane/dataplane.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "obs/metrics.hpp"

namespace qv::dataplane {
namespace {

DataplaneConfig small_config() {
  DataplaneConfig cfg;
  cfg.shards = 2;
  cfg.ports_per_shard = 2;
  cfg.packets_per_port = 20'000;
  return cfg;
}

/// Books of every port in global port order (the per-port streams are a
/// function of seed and global port id, so this order is comparable
/// across different shard counts).
std::vector<PortBook> port_books(const DataplaneResult& r) {
  std::vector<PortBook> books;
  for (const ShardResult& s : r.shards) {
    for (const PortBook& b : s.ports) books.push_back(b);
  }
  return books;
}

TEST(DataplaneTest, BooksBalanceAndDrainCompletely) {
  const DataplaneResult r = run_dataplane(small_config());
  ASSERT_TRUE(r.balanced);
  const PortBook total = r.book();
  EXPECT_EQ(total.generated, 4u * 20'000u);
  EXPECT_EQ(total.generated, total.processed);
  EXPECT_EQ(total.processed,
            total.unknown_dropped + total.admission_dropped + total.enqueued);
  EXPECT_EQ(total.admission_dropped, total.rate_dropped);  // rate-only guard
  EXPECT_EQ(total.enqueued, total.dequeued);
  EXPECT_EQ(total.residual, 0u);
  EXPECT_EQ(total.queue_dropped, 0u);
  // The policed tenant is contracted well below its offered rate: the
  // guard must actually drop (otherwise the drop books are untested).
  EXPECT_GT(total.rate_dropped, 0u);
  EXPECT_EQ(total.delivered_bytes, total.dequeued * 1500u);
}

TEST(DataplaneTest, RepeatedRunsProduceIdenticalBooks) {
  const DataplaneResult a = run_dataplane(small_config());
  const DataplaneResult b = run_dataplane(small_config());
  EXPECT_EQ(port_books(a), port_books(b));
}

TEST(DataplaneTest, PerPortBooksInvariantAcrossShardCounts) {
  // 2 shards x 2 ports and 4 shards x 1 port cover the same global
  // ports; fixed contiguous ownership + per-port seeded streams make
  // every per-port book identical regardless of the sharding.
  DataplaneConfig two = small_config();
  DataplaneConfig four = small_config();
  four.shards = 4;
  four.ports_per_shard = 1;
  const DataplaneResult a = run_dataplane(two);
  const DataplaneResult b = run_dataplane(four);
  ASSERT_TRUE(b.balanced);
  EXPECT_EQ(port_books(a), port_books(b));
}

TEST(DataplaneTest, FusedModeProducesIdenticalBooks) {
  DataplaneConfig fused = small_config();
  fused.fused = true;
  const DataplaneResult a = run_dataplane(small_config());
  const DataplaneResult b = run_dataplane(fused);
  ASSERT_TRUE(b.balanced);
  EXPECT_EQ(port_books(a), port_books(b));
}

TEST(DataplaneTest, OnePacketBurstsBalanceAndAreDeterministic) {
  DataplaneConfig cfg = small_config();
  cfg.batch = 1;
  const DataplaneResult a = run_dataplane(cfg);
  ASSERT_TRUE(a.balanced);
  const DataplaneResult b = run_dataplane(cfg);
  EXPECT_EQ(port_books(a), port_books(b));
}

TEST(DataplaneTest, BooksPinnedAtOneAndThirtyTwoPacketBursts) {
  // Exact totals: a change to generation, admission or service order
  // shows here. A burst is one admission instant, so the rate-drop
  // count moves with the burst size: 6,807 drops at batch 1, 6,811 at
  // batch 32.
  DataplaneConfig cfg = small_config();
  cfg.batch = 1;
  const PortBook one = run_dataplane(cfg).book();
  EXPECT_EQ(one.rate_dropped, 6'807u);
  EXPECT_EQ(one.enqueued, 73'193u);
  EXPECT_EQ(one.delivered_bytes, 109'789'500u);
  cfg.batch = 32;
  EXPECT_EQ(run_dataplane(cfg).book().rate_dropped, 6'811u);
}

TEST(DataplaneTest, SeedChangesTheBooks) {
  DataplaneConfig other = small_config();
  other.seed = 2;
  const DataplaneResult a = run_dataplane(small_config());
  const DataplaneResult b = run_dataplane(other);
  ASSERT_TRUE(b.balanced);
  EXPECT_NE(port_books(a), port_books(b));
}

TEST(DataplaneTest, UnguardedRunAdmitsEverything) {
  DataplaneConfig cfg = small_config();
  cfg.guard = false;
  const DataplaneResult r = run_dataplane(cfg);
  ASSERT_TRUE(r.balanced);
  const PortBook total = r.book();
  EXPECT_EQ(total.admission_dropped, 0u);
  EXPECT_EQ(total.enqueued, total.processed);
}

TEST(DataplaneTest, RejectsDegenerateConfigs) {
  DataplaneConfig cfg = small_config();
  cfg.shards = 0;
  EXPECT_THROW(run_dataplane(cfg), std::invalid_argument);
  cfg = small_config();
  cfg.batch = 0;
  EXPECT_THROW(run_dataplane(cfg), std::invalid_argument);
  cfg = small_config();
  cfg.packets_per_port = 0;
  EXPECT_THROW(run_dataplane(cfg), std::invalid_argument);
}

TEST(DataplaneTest, ExportMetricsPublishesBooksAndHistograms) {
  const DataplaneResult r = run_dataplane(small_config());
  obs::Registry reg;
  r.export_metrics(reg);
  EXPECT_EQ(reg.counter_value("dataplane.total.generated"),
            r.book().generated);
  EXPECT_EQ(reg.counter_value("dataplane.shard0.processed") +
                reg.counter_value("dataplane.shard1.processed"),
            r.book().processed);
  ASSERT_NE(reg.find_histogram("dataplane.shard0.batch_pkts"), nullptr);
  EXPECT_GT(reg.find_histogram("dataplane.shard0.batch_pkts")->count(), 0u);
}

}  // namespace
}  // namespace qv::dataplane
