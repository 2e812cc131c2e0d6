// The paper's Fig. 2 timeline: tenants activate and deactivate over
// time and QVISOR's runtime controller re-synthesizes the joint policy
// as the active set changes (§2, Idea 2).
//
// Phase 1 (0-20 ms) : T1 (interactive/pFabric) + T2 (deadline/EDF)
// Phase 2 (20-40 ms): T3 (background/Fair Queuing) alone
//
//   $ ./runtime_adaptation
#include <algorithm>
#include <cstdio>
#include <memory>

#include "netsim/network.hpp"
#include "netsim/topology.hpp"
#include "qvisor/backend.hpp"
#include "qvisor/qvisor.hpp"
#include "qvisor/runtime.hpp"
#include "sched/rank/edf.hpp"
#include "sched/rank/pfabric.hpp"
#include "sched/rank/stfq.hpp"
#include "trafficgen/cbr_source.hpp"
#include "trafficgen/host_source.hpp"

using namespace qv;
using namespace qv::qvisor;

int main() {
  netsim::Simulator sim;

  auto pfabric = std::make_shared<sched::PFabricRanker>(1, 1 << 24);
  auto edf = std::make_shared<sched::EdfRanker>(microseconds(1), 1 << 16);
  auto fq = std::make_shared<sched::StfqRanker>(1, 1 << 16);

  std::vector<TenantSpec> tenants;
  tenants.push_back(TenantSpec::make(1, "interactive", pfabric));
  tenants.push_back(TenantSpec::make(2, "deadline", edf));
  tenants.push_back(TenantSpec::make(3, "background", fq));

  const auto parsed =
      parse_policy("interactive + deadline >> background");
  Hypervisor hv(std::move(tenants), *parsed.policy,
                std::make_shared<PifoBackend>());
  hv.compile();

  netsim::Network net(sim);
  auto topo = netsim::build_single_switch(
      net, 4, gbps(1), microseconds(1),
      [&](const netsim::PortContext&) { return hv.make_port_scheduler(); });

  // Phase 1 traffic.
  trafficgen::HostSource interactive(sim, *topo.hosts[0], 1, pfabric,
                                     gbps(1));
  trafficgen::CbrSource deadline(sim, *topo.hosts[1], topo.hosts[2]->id(),
                                 900, 2, edf, mbps(300), milliseconds(2),
                                 0, milliseconds(20));
  for (TimeNs t = milliseconds(1); t < milliseconds(18);
       t += milliseconds(4)) {
    sim.at(t, [&] {
      interactive.start_flow(static_cast<FlowId>(sim.now()),
                             topo.hosts[3]->id(), 50'000);
    });
  }

  // Phase 2 traffic.
  trafficgen::HostSource background(sim, *topo.hosts[2], 3, fq, gbps(1));
  sim.at(milliseconds(20), [&] {
    background.start_flow(2000, topo.hosts[0]->id(), 2'500'000);
  });

  RuntimeConfig rc;
  rc.activity_window = milliseconds(3);
  rc.min_reconfig_interval = 0;
  HypervisorTarget target(hv);
  RuntimeController controller(target, rc);

  std::printf("%-8s %-28s %s\n", "t (ms)", "active tenants", "plan");
  for (TimeNs t = milliseconds(1); t <= milliseconds(38);
       t += milliseconds(1)) {
    sim.at(t, [&, t] {
      const bool adapted = controller.tick(t);
      if (!adapted) return;
      std::string active;
      const auto& ids = controller.active_tenants();  // sorted
      for (const auto& spec : hv.tenants()) {
        if (!std::binary_search(ids.begin(), ids.end(), spec.id)) continue;
        if (!active.empty()) active += ",";
        active += spec.name;
      }
      std::printf("%-8.0f %-28s %s   [re-synthesized, #%llu]\n",
                  to_milliseconds(t), active.c_str(),
                  hv.plan().policy.to_string().c_str(),
                  static_cast<unsigned long long>(controller.adaptations()));
      for (const auto& tp : hv.plan().tenants) {
        std::printf("         - %-12s -> ranks [%u, %u]\n",
                    tp.name.c_str(), tp.transform.out_min(),
                    tp.transform.out_max());
      }
    });
  }

  sim.run_until(milliseconds(40));

  std::printf("\ntotal adaptations: %llu  (compile count %llu)\n",
              static_cast<unsigned long long>(controller.adaptations()),
              static_cast<unsigned long long>(hv.compile_count()));
  std::printf("When interactive+deadline go quiet at t=20ms, the\n"
              "controller hands the whole rank space to background —\n"
              "the multiplexing-over-time insight of paper §1.\n");
  return 0;
}
