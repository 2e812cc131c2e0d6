#include "trafficgen/reliable_source.hpp"

#include <gtest/gtest.h>

#include "netsim/network.hpp"
#include "sched/fifo.hpp"
#include "sched/pifo.hpp"
#include "sched/rank/pfabric.hpp"
#include "telemetry/fct_tracker.hpp"

#include "experiments/fig4.hpp"

namespace qv::trafficgen {
namespace {

struct Rig {
  netsim::Simulator sim;
  netsim::Network net{sim};
  netsim::Host* src = nullptr;
  netsim::Host* dst = nullptr;
  netsim::Switch* sw = nullptr;
  std::unique_ptr<ReliableHostSource> source;
  std::unique_ptr<ReliableSink> src_sink;  ///< consumes ACKs at the sender
  std::unique_ptr<ReliableSink> dst_sink;
  telemetry::FctTracker fct{/*dedup_by_seq=*/true};

  explicit Rig(std::int64_t buffer_bytes = 0,
               TimeNs rto = microseconds(500)) {
    src = &net.add_host("src");
    dst = &net.add_host("dst");
    sw = &net.add_switch("sw");
    auto factory = [buffer_bytes](const netsim::PortContext&) {
      return std::make_unique<sched::PifoQueue>(buffer_bytes);
    };
    net.connect_bidir(*src, *sw, gbps(1), microseconds(1), factory);
    net.connect_bidir(*dst, *sw, gbps(1), microseconds(1), factory);
    net.compute_routes();

    auto ranker = std::make_shared<sched::PFabricRanker>(1, 1 << 24);
    source = std::make_unique<ReliableHostSource>(sim, *src, 1, ranker,
                                                  gbps(1), rto);
    src_sink = std::make_unique<ReliableSink>(
        sim, *src, source.get(),
        [](const Packet&, TimeNs) {});
    src_sink->attach();
    dst_sink = std::make_unique<ReliableSink>(
        sim, *dst, nullptr,
        [this](const Packet& p, TimeNs now) {
          fct.on_packet_delivered(p, now);
        });
    dst_sink->attach();
  }
};

TEST(ReliableTransport, LosslessFlowCompletesWithoutRetransmissions) {
  Rig rig;
  rig.fct.on_flow_start(1, 1, 10'000, 0);
  FlowId done = 0;
  rig.source->set_on_flow_done([&](FlowId f, TimeNs) { done = f; });
  rig.source->start_flow(1, rig.dst->id(), 10'000);
  rig.sim.run();
  EXPECT_EQ(done, 1u);
  EXPECT_EQ(rig.source->retransmissions(), 0u);
  EXPECT_EQ(rig.fct.flows_completed(), 1u);
  EXPECT_EQ(rig.source->active_flows(), 0u);
  // 7 packets of data -> 7 ACKs.
  EXPECT_EQ(rig.dst_sink->acks_sent(), 7u);
}

TEST(ReliableTransport, RecoversFromDrops) {
  // Two senders converge on one 1 Gb/s downlink with a tiny 3000 B
  // buffer: the incast overflows it, yet both flows must complete via
  // timeout retransmission.
  netsim::Simulator sim;
  netsim::Network net(sim);
  auto& a = net.add_host("a");
  auto& b = net.add_host("b");
  auto& dst = net.add_host("dst");
  auto& sw = net.add_switch("sw");
  auto factory = [](const netsim::PortContext&) {
    return std::make_unique<sched::PifoQueue>(3000);
  };
  net.connect_bidir(a, sw, gbps(1), microseconds(1), factory);
  net.connect_bidir(b, sw, gbps(1), microseconds(1), factory);
  net.connect_bidir(dst, sw, gbps(1), microseconds(1), factory);
  net.compute_routes();

  auto ranker = std::make_shared<sched::PFabricRanker>(1, 1 << 24);
  ReliableHostSource src_a(sim, a, 1, ranker, gbps(1), microseconds(300));
  ReliableHostSource src_b(sim, b, 1, ranker, gbps(1), microseconds(300));
  ReliableSink sink_a(sim, a, &src_a, {});
  ReliableSink sink_b(sim, b, &src_b, {});
  sink_a.attach();
  sink_b.attach();
  telemetry::FctTracker fct(/*dedup_by_seq=*/true);
  ReliableSink sink_dst(sim, dst, nullptr,
                        [&](const Packet& p, TimeNs now) {
                          fct.on_packet_delivered(p, now);
                        });
  sink_dst.attach();

  fct.on_flow_start(1, 1, 60'000, 0);
  fct.on_flow_start(2, 1, 60'000, 0);
  src_a.start_flow(1, dst.id(), 60'000);
  src_b.start_flow(2, dst.id(), 60'000);
  sim.run_until(milliseconds(100));

  EXPECT_EQ(fct.flows_completed(), 2u);
  EXPECT_GT(net.total_drops(), 0u);
  EXPECT_GT(src_a.retransmissions() + src_b.retransmissions(), 0u);
}

TEST(ReliableTransport, DedupKeepsFctExact) {
  Rig rig(3000, microseconds(200));
  rig.fct.on_flow_start(1, 1, 30'000, 0);
  rig.source->start_flow(1, rig.dst->id(), 30'000);
  rig.sim.run_until(milliseconds(50));
  const auto* record = rig.fct.find(1);
  ASSERT_NE(record, nullptr);
  ASSERT_TRUE(record->complete());
  // Received EXACTLY the flow size despite duplicates on the wire.
  EXPECT_EQ(record->received_bytes, 30'000);
}

TEST(ReliableTransport, SrptOrderAcrossFlows) {
  Rig rig;
  TimeNs short_done = 0;
  TimeNs long_done = 0;
  rig.source->set_on_flow_done([&](FlowId f, TimeNs t) {
    (f == 1 ? long_done : short_done) = t;
  });
  rig.source->start_flow(1, rig.dst->id(), 60'000);
  rig.source->start_flow(2, rig.dst->id(), 3'000);
  rig.sim.run();
  EXPECT_GT(short_done, 0);
  EXPECT_GT(long_done, 0);
  EXPECT_LT(short_done, long_done);
}

TEST(ReliableTransport, AckFilterSkipsUnreliableTenants) {
  Rig rig;
  rig.dst_sink->set_ack_filter(
      [](const Packet& p) { return p.tenant == 1; });
  // Inject a foreign-tenant data packet directly.
  Packet p;
  p.flow = 77;
  p.tenant = 9;
  p.src = rig.src->id();
  p.dst = rig.dst->id();
  p.size_bytes = 1500;
  rig.src->send(p);
  rig.sim.run();
  EXPECT_EQ(rig.dst_sink->acks_sent(), 0u);
}

TEST(ReliableTransport, StaleAckIsIgnored) {
  Rig rig;
  rig.source->start_flow(1, rig.dst->id(), 1500);
  rig.sim.run();
  EXPECT_EQ(rig.source->active_flows(), 0u);
  // Replay the ACK after completion: must be a no-op.
  Packet ack;
  ack.kind = PacketKind::kAck;
  ack.flow = 1;
  ack.seq = 0;
  rig.source->on_ack(ack, rig.sim.now());
  EXPECT_EQ(rig.source->active_flows(), 0u);
}

TEST(ReliableTransport, StaleSendLogEntryNeitherExpiresNorRewinds) {
  // Flow 1 is sent at 0 and ACKed long before the RTO, so its send-log
  // entry is still queued when a NEW flow 1 re-sends (flow 1, seq 0) at
  // 495 us. The timeout at 500 us pops the old entry: that packet was
  // re-sent since (and is ACKed ~30 us later), so the entry must
  // neither expire it into a spurious retransmission nor rewind the
  // flow's scan cursor.
  Rig rig;
  int done = 0;
  rig.source->set_on_flow_done([&](FlowId, TimeNs) { ++done; });
  rig.source->start_flow(1, rig.dst->id(), 1500);
  rig.sim.at(microseconds(495),
             [&] { rig.source->start_flow(1, rig.dst->id(), 1500); });
  rig.sim.run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(rig.source->packets_sent(), 2u);
  EXPECT_EQ(rig.source->retransmissions(), 0u);
  EXPECT_EQ(rig.source->active_flows(), 0u);
}

TEST(ReliableTransport, RetransmissionCarriesUpdatedRank) {
  // After ACKs shrink the un-ACKed byte count, later (re)transmissions
  // carry smaller pFabric ranks; just assert monotone non-increasing
  // rank per flow in a clean run.
  Rig rig;
  std::vector<Rank> ranks;
  rig.dst_sink = std::make_unique<ReliableSink>(
      rig.sim, *rig.dst, nullptr,
      [&](const Packet& p, TimeNs) { ranks.push_back(p.original_rank); });
  rig.dst_sink->attach();
  rig.source->start_flow(1, rig.dst->id(), 15'000);
  rig.sim.run();
  ASSERT_GE(ranks.size(), 2u);
  for (std::size_t i = 1; i < ranks.size(); ++i) {
    EXPECT_LE(ranks[i], ranks[i - 1]);
  }
}

TEST(ReliableFig4, ReliableRunMatchesShape) {
  // One small reliable end-to-end run: QVISOR pFabric-first must beat
  // EDF-first for pFabric on finite buffers with retransmissions.
  using namespace qv::experiments;
  Fig4Config cfg = fig4_scaled_config();
  cfg.reliable = true;
  cfg.load = 0.5;
  cfg.warmup = milliseconds(10);
  cfg.measure_window = milliseconds(30);
  cfg.drain = milliseconds(80);
  cfg.max_flow_bytes = 2e6;

  cfg.scheme = Fig4Scheme::kQvisorPfabricOverEdf;
  const auto good = run_fig4(cfg);
  cfg.scheme = Fig4Scheme::kQvisorEdfOverPfabric;
  const auto bad = run_fig4(cfg);
  EXPECT_GT(bad.mean_large_lb_ms, good.mean_large_lb_ms);
  EXPECT_GT(good.drops, 0u);  // finite buffers actually dropped
}

}  // namespace
}  // namespace qv::trafficgen
