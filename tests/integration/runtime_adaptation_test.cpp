// Integration test for the paper's Fig. 2 story: tenants come and go
// over time; the runtime controller re-synthesizes the joint policy in
// the data plane without violating isolation at any point.
#include <gtest/gtest.h>

#include <memory>

#include "netsim/network.hpp"
#include "netsim/topology.hpp"
#include "qvisor/backend.hpp"
#include "qvisor/qvisor.hpp"
#include "qvisor/runtime.hpp"
#include "sched/rank/edf.hpp"
#include "sched/rank/pfabric.hpp"
#include "sched/rank/stfq.hpp"
#include "telemetry/fct_tracker.hpp"
#include "trafficgen/cbr_source.hpp"
#include "trafficgen/host_source.hpp"

namespace qv {
namespace {

using qvisor::Hypervisor;
using qvisor::PifoBackend;
using qvisor::RuntimeConfig;
using qvisor::RuntimeController;
using qvisor::TenantSpec;

TEST(RuntimeAdaptation, Fig2TenantChurnEndToEnd) {
  netsim::Simulator sim;

  auto pfabric = std::make_shared<sched::PFabricRanker>(1, 1 << 24);
  auto edf = std::make_shared<sched::EdfRanker>(microseconds(1), 1 << 16);
  auto fq = std::make_shared<sched::StfqRanker>(1, 1 << 16);

  std::vector<TenantSpec> tenants;
  tenants.push_back(TenantSpec::make(1, "interactive", pfabric));
  tenants.push_back(TenantSpec::make(2, "deadline", edf));
  tenants.push_back(TenantSpec::make(3, "background", fq));

  auto parsed = qvisor::parse_policy("interactive + deadline >> background");
  ASSERT_TRUE(parsed.ok());
  Hypervisor hv(std::move(tenants), *parsed.policy,
                std::make_shared<PifoBackend>());
  ASSERT_TRUE(hv.compile().ok);

  netsim::Network net(sim);
  auto topo = netsim::build_single_switch(
      net, 4, gbps(1), microseconds(1),
      [&](const netsim::PortContext&) { return hv.make_port_scheduler(); });

  telemetry::FctTracker fct;
  for (auto* h : topo.hosts) {
    h->set_sink(
        [&](const Packet& p) { fct.on_packet_delivered(p, sim.now()); });
  }

  // Phase 1 (t < 10 ms): interactive + deadline traffic.
  trafficgen::HostSource inter(sim, *topo.hosts[0], 1, pfabric, gbps(1));
  trafficgen::CbrSource cbr(sim, *topo.hosts[1], topo.hosts[2]->id(),
                            /*flow=*/500, 2, edf, mbps(300),
                            milliseconds(2), 0, milliseconds(10));
  sim.at(milliseconds(1), [&] {
    fct.on_flow_start(1000, 1, 100'000, sim.now());
    inter.start_flow(1000, topo.hosts[3]->id(), 100'000);
  });

  // Phase 2 (t >= 15 ms): only background traffic. The flow is sized to
  // keep transmitting past the last controller tick (2 MB at 1 Gb/s is
  // 16 ms of traffic) so "background" is still active at t = 30 ms.
  trafficgen::HostSource bg(sim, *topo.hosts[2], 3, fq, gbps(1));
  sim.at(milliseconds(15), [&] {
    fct.on_flow_start(2000, 3, 2'000'000, sim.now());
    bg.start_flow(2000, topo.hosts[0]->id(), 2'000'000);
  });

  // Controller ticks every millisecond (the "event-driven controller").
  RuntimeConfig rc_cfg;
  rc_cfg.activity_window = milliseconds(3);
  rc_cfg.min_reconfig_interval = 0;
  qvisor::HypervisorTarget target(hv);
  RuntimeController controller(target, rc_cfg);
  for (TimeNs t = milliseconds(1); t <= milliseconds(30);
       t += milliseconds(1)) {
    sim.at(t, [&, t] { controller.tick(t); });
  }

  sim.run_until(milliseconds(40));

  // Both flows completed.
  EXPECT_EQ(fct.flows_completed(), 2u);

  // The controller adapted at least twice: once when phase 1's set was
  // detected, once at the phase shift.
  EXPECT_GE(controller.adaptations(), 2u);

  // After phase 2, only "background" is active and owns the top band.
  ASSERT_TRUE(hv.has_plan());
  ASSERT_EQ(hv.plan().tenants.size(), 1u);
  EXPECT_EQ(hv.plan().tenants[0].name, "background");
  EXPECT_EQ(hv.plan().tenants[0].transform.out_min(), 0u);
}

TEST(RuntimeAdaptation, CompileForSubsetKeepsOperatorIntent) {
  auto pfabric = std::make_shared<sched::PFabricRanker>(1, 1 << 24);
  std::vector<TenantSpec> tenants;
  tenants.push_back(TenantSpec::make(1, "a", pfabric));
  tenants.push_back(TenantSpec::make(2, "b", pfabric));
  tenants.push_back(TenantSpec::make(3, "c", pfabric));
  auto parsed = qvisor::parse_policy("a >> b >> c");
  ASSERT_TRUE(parsed.ok());
  Hypervisor hv(std::move(tenants), *parsed.policy,
                std::make_shared<PifoBackend>());

  // Compile for {b, c} only: b must still sit strictly above c.
  auto result = hv.compile_for({"b", "c"});
  ASSERT_TRUE(result.ok) << result.error;
  const auto* b = hv.plan().find("b");
  const auto* c = hv.plan().find("c");
  ASSERT_NE(b, nullptr);
  ASSERT_NE(c, nullptr);
  EXPECT_LT(b->transform.out_max(), c->transform.out_min());
  EXPECT_EQ(hv.plan().find("a"), nullptr);

  // The full policy is unchanged for later compiles.
  EXPECT_TRUE(hv.compile().ok);
  EXPECT_NE(hv.plan().find("a"), nullptr);
}

}  // namespace
}  // namespace qv
