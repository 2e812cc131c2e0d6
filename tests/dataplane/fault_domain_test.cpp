// Dataplane fault domain: supervised runs are byte-identical to
// unsupervised on the fault-free path, injected faults (stall, crash,
// poison descriptor, ring desync) recover from checkpoints with the
// books still balanced, quarantine breaks deterministic crash-loops,
// and drain recoveries itemize bounded loss into lost_in_flight.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "dataplane/dataplane.hpp"
#include "dataplane/fault.hpp"

namespace qv::dataplane {
namespace {

DataplaneConfig fd_config() {
  DataplaneConfig cfg;
  cfg.shards = 2;
  cfg.ports_per_shard = 2;
  cfg.packets_per_port = 4'000;
  cfg.batch = 16;
  cfg.ring_capacity = 256;
  cfg.service_depth = 64;
  cfg.tenants = 4;
  return cfg;
}

SupervisionConfig fast_supervision() {
  SupervisionConfig sup;
  sup.enabled = true;
  sup.heartbeat_deadline_ns = 5'000'000;  // 5 ms: tests stay fast
  sup.watchdog_poll_ns = 500'000;
  sup.checkpoint_interval_bursts = 8;
  return sup;
}

std::vector<PortBook> port_books(const DataplaneResult& r) {
  std::vector<PortBook> books;
  for (const ShardResult& s : r.shards) {
    for (const PortBook& b : s.ports) books.push_back(b);
  }
  return books;
}

TEST(DataplaneFaultDomain, SupervisedFaultFreeBooksAreByteIdentical) {
  const DataplaneConfig base = fd_config();
  DataplaneConfig sup = base;
  sup.supervision = fast_supervision();
  const DataplaneResult a = run_dataplane(base);
  const DataplaneResult b = run_dataplane(sup);
  ASSERT_TRUE(b.balanced);
  // Checkpoint/deferred-commit machinery must not perturb a single
  // counter. A burst is one admission instant, so this holds because
  // the supervised consumer sees the same burst boundaries (the ring
  // capacity is a multiple of batch, and checkpoints commit whole
  // bursts).
  EXPECT_EQ(port_books(a), port_books(b));
  const SupervisionStats st = b.supervision();
  EXPECT_GT(st.checkpoints, 0u);
  EXPECT_EQ(st.restores, 0u);
  EXPECT_EQ(st.quarantined, 0u);
  EXPECT_EQ(b.book().quarantined, 0u);
  EXPECT_EQ(b.book().lost_in_flight, 0u);
}

TEST(DataplaneFaultDomain, SupervisedFusedAndOnePacketBurstsMatchUnsupervised) {
  DataplaneConfig fused = fd_config();
  fused.fused = true;
  DataplaneConfig sup_fused = fused;
  sup_fused.supervision = fast_supervision();
  EXPECT_EQ(port_books(run_dataplane(fused)),
            port_books(run_dataplane(sup_fused)));

  DataplaneConfig one_packet = fd_config();
  one_packet.batch = 1;
  DataplaneConfig sup_one_packet = one_packet;
  sup_one_packet.supervision = fast_supervision();
  EXPECT_EQ(port_books(run_dataplane(one_packet)),
            port_books(run_dataplane(sup_one_packet)));
}

TEST(DataplaneFaultDomain, CrashRecoveryReplaysToFaultFreeBooks) {
  DataplaneConfig cfg = fd_config();
  cfg.supervision = fast_supervision();
  cfg.fault_plan.worker_crash(/*shard=*/0, /*at_burst=*/12);
  cfg.fault_plan.worker_crash(/*shard=*/1, /*at_burst=*/20);
  const DataplaneResult r = run_dataplane(cfg);
  ASSERT_TRUE(r.balanced);
  const SupervisionStats st = r.supervision();
  EXPECT_EQ(st.crashes, 2u);
  EXPECT_EQ(st.restores, 2u);
  ASSERT_EQ(r.shards[0].recoveries.size(), 1u);
  EXPECT_EQ(r.shards[0].recoveries[0].cause, RecoveryRecord::Cause::kCrash);
  EXPECT_FALSE(r.shards[0].recoveries[0].drained);
  // Replay recovery: the uncommitted ring region is reprocessed from
  // the checkpoint, so the final books match a fault-free run exactly.
  EXPECT_EQ(port_books(r), port_books(run_dataplane(fd_config())));
  EXPECT_EQ(r.book().quarantined, 0u);
  EXPECT_EQ(r.book().lost_in_flight, 0u);
}

TEST(DataplaneFaultDomain, StallIsDetectedByWatchdogAndRecovered) {
  DataplaneConfig cfg = fd_config();
  cfg.supervision = fast_supervision();
  // Wedge far longer than the heartbeat deadline: only the watchdog's
  // kill verdict can release the worker this fast.
  cfg.fault_plan.worker_stall(/*shard=*/1, /*at_burst=*/10,
                              /*stall_ns=*/2'000'000'000);
  const DataplaneResult r = run_dataplane(cfg);
  ASSERT_TRUE(r.balanced);
  const SupervisionStats st = r.supervision();
  EXPECT_EQ(st.stalls, 1u);
  EXPECT_EQ(st.watchdog_detects, 1u);
  EXPECT_EQ(st.detect_ns.count(), 1u);  // one age per real detect
  EXPECT_EQ(st.restores, 1u);
  ASSERT_EQ(r.shards[1].recoveries.size(), 1u);
  EXPECT_EQ(r.shards[1].recoveries[0].cause, RecoveryRecord::Cause::kStall);
  EXPECT_EQ(port_books(r), port_books(run_dataplane(fd_config())));
}

TEST(DataplaneFaultDomain, PoisonPacketIsQuarantinedNotCrashLooped) {
  DataplaneConfig cfg = fd_config();
  cfg.supervision = fast_supervision();
  cfg.fault_plan.descriptor_corrupt(/*port=*/2, /*seq=*/700);
  const DataplaneResult r = run_dataplane(cfg);
  ASSERT_TRUE(r.balanced);
  const SupervisionStats st = r.supervision();
  // quarantine_after=2: fault once -> restore -> replay faults the SAME
  // packet -> isolate. Without quarantine this would loop forever.
  EXPECT_EQ(st.poison_faults, 2u);
  EXPECT_EQ(st.restores, 1u);
  EXPECT_EQ(st.quarantined, 1u);
  ASSERT_EQ(r.shards[1].quarantine.size(), 1u);  // port 2 lives on shard 1
  const QuarantineRecord& q = r.shards[1].quarantine[0];
  EXPECT_EQ(q.shard, 1u);
  EXPECT_EQ(q.port, 2u);
  EXPECT_EQ(q.seq, 700u);
  EXPECT_EQ(q.faults, 2);
  // Itemized, not lost: the conservation law closes through quarantined.
  const PortBook total = r.book();
  EXPECT_EQ(total.quarantined, 1u);
  EXPECT_EQ(total.lost_in_flight, 0u);
  EXPECT_EQ(total.generated, total.processed + 1u);
}

TEST(DataplaneFaultDomain, RingDesyncDrainsWithBoundedItemizedLoss) {
  DataplaneConfig cfg = fd_config();
  cfg.supervision = fast_supervision();
  cfg.fault_plan.ring_desync(/*shard=*/0, /*at_burst=*/6, /*slots=*/8);
  const DataplaneResult r = run_dataplane(cfg);
  ASSERT_TRUE(r.balanced);  // loss is itemized, so the books still close
  const SupervisionStats st = r.supervision();
  EXPECT_EQ(st.desyncs, 1u);
  EXPECT_EQ(st.restores, 1u);
  ASSERT_EQ(r.shards[0].recoveries.size(), 1u);
  const RecoveryRecord& rec = r.shards[0].recoveries[0];
  EXPECT_EQ(rec.cause, RecoveryRecord::Cause::kDesync);
  EXPECT_TRUE(rec.drained);
  EXPECT_LE(rec.lost, cfg.ring_capacity + cfg.batch);
  EXPECT_EQ(r.book().lost_in_flight, rec.lost);
}

TEST(DataplaneFaultDomain, DrainPolicyItemizesBoundedLoss) {
  DataplaneConfig cfg = fd_config();
  cfg.supervision = fast_supervision();
  cfg.supervision.drain_on_restore = true;
  cfg.fault_plan.worker_crash(/*shard=*/0, /*at_burst=*/10);
  const DataplaneResult r = run_dataplane(cfg);
  ASSERT_TRUE(r.balanced);
  ASSERT_EQ(r.shards[0].recoveries.size(), 1u);
  const RecoveryRecord& rec = r.shards[0].recoveries[0];
  EXPECT_TRUE(rec.drained);
  // At burst 10 the producer is far ahead: something was in flight.
  EXPECT_GT(rec.lost, 0u);
  EXPECT_LE(rec.lost, cfg.ring_capacity + cfg.batch);
  const PortBook total = r.book();
  EXPECT_EQ(total.lost_in_flight, rec.lost);
  EXPECT_EQ(total.generated, total.processed + total.lost_in_flight);
}

TEST(DataplaneFaultDomain, FusedSupervisedRecoversCrashToFaultFreeBooks) {
  DataplaneConfig cfg = fd_config();
  cfg.fused = true;
  cfg.supervision = fast_supervision();
  cfg.fault_plan.worker_crash(/*shard=*/0, /*at_burst=*/8);
  const DataplaneResult r = run_dataplane(cfg);
  ASSERT_TRUE(r.balanced);
  EXPECT_EQ(r.supervision().crashes, 1u);
  DataplaneConfig clean = fd_config();
  clean.fused = true;
  EXPECT_EQ(port_books(r), port_books(run_dataplane(clean)));
}

TEST(DataplaneFaultDomain, DataplaneFaultsRequireSupervision) {
  DataplaneConfig cfg = fd_config();
  cfg.fault_plan.worker_crash(/*shard=*/0, /*at_burst=*/8);
  EXPECT_THROW(run_dataplane(cfg), std::invalid_argument);
}

TEST(DataplaneFaultDomain, RandomFaultPlanRecoversAndBalances) {
  for (const std::uint64_t seed : {1ull, 7ull}) {
    DataplaneConfig cfg = fd_config();
    cfg.supervision = fast_supervision();
    RandomDataplaneFaultConfig fc;
    fc.max_seq = 3'000;  // within the per-port budget: always consumed
    cfg.fault_plan = random_dataplane_fault_plan(seed, cfg.shards,
                                                 cfg.ports_per_shard, fc);
    const DataplaneResult r = run_dataplane(cfg);
    ASSERT_TRUE(r.balanced) << "seed " << seed;
    EXPECT_GT(r.supervision().restores, 0u) << "seed " << seed;
    for (const ShardResult& s : r.shards) {
      for (const RecoveryRecord& rec : s.recoveries) {
        EXPECT_LE(rec.lost, cfg.ring_capacity + cfg.batch)
            << "seed " << seed << " cause "
            << recovery_cause_name(rec.cause);
      }
    }
  }
}

}  // namespace
}  // namespace qv::dataplane
