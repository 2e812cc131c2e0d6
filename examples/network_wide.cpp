// Network-wide scheduling virtualization (paper §5, "Cross-device
// virtualization"): one Fleet keeps a per-switch Hypervisor on every
// leaf and spine of a fabric, deploys the shared policy all-or-nothing,
// and reacts to tenant activity seen ANYWHERE in the network.
//
//   $ ./network_wide
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>

#include "netsim/topology.hpp"
#include "qvisor/backend.hpp"
#include "qvisor/fleet.hpp"
#include "sched/fifo.hpp"
#include "sched/rank/edf.hpp"
#include "sched/rank/pfabric.hpp"

using namespace qv;
using namespace qv::qvisor;

int main() {
  auto pfabric = std::make_shared<sched::PFabricRanker>(1, 1 << 20);
  auto edf = std::make_shared<sched::EdfRanker>(microseconds(1), 1 << 12);

  std::vector<TenantSpec> tenants;
  tenants.push_back(TenantSpec::make(1, "frontend", pfabric));
  tenants.push_back(TenantSpec::make(2, "realtime", edf));
  tenants.push_back(TenantSpec::make(3, "batch", pfabric));

  const auto parsed = parse_policy("realtime >> frontend >> batch");
  Fleet fleet(std::move(tenants), *parsed.policy,
              std::make_shared<PifoBackend>());

  // One fleet member per switch of a 2x1 leaf-spine; host NICs keep
  // plain FIFOs (hosts are not QVISOR devices).
  netsim::Simulator sim;
  netsim::Network net(sim);
  std::map<std::string, std::size_t> switch_index;
  netsim::SchedulerFactory factory =
      [&](const netsim::PortContext& ctx)
      -> std::unique_ptr<sched::Scheduler> {
    if (ctx.from_host) return std::make_unique<sched::FifoQueue>();
    auto [it, inserted] = switch_index.try_emplace(ctx.node_name, 0);
    if (inserted) it->second = fleet.add_switch(ctx.node_name);
    return fleet.make_port_scheduler(it->second);
  };
  netsim::LeafSpineConfig topo_cfg;
  topo_cfg.leaves = 2;
  topo_cfg.spines = 1;
  topo_cfg.hosts_per_leaf = 2;
  auto fabric = netsim::build_leaf_spine(net, topo_cfg, factory);

  const auto compiled = fleet.compile();
  if (!compiled.ok) {
    std::fprintf(stderr, "fleet compile failed: %s\n",
                 compiled.error.c_str());
    return 1;
  }
  std::printf("fleet: %zu switches under policy '%s'\n",
              fleet.switch_count(), fleet.policy().to_string().c_str());

  // Tenant "frontend" transmits only on leaf0's side; "batch" only
  // crosses the spine from leaf1.
  auto send = [&](std::size_t src, std::size_t dst, TenantId tenant,
                  Rank rank, TimeNs at) {
    sim.at(at, [&, src, dst, tenant, rank] {
      Packet p;
      p.flow = tenant * 100 + src;
      p.tenant = tenant;
      p.rank = rank;
      p.original_rank = rank;
      p.size_bytes = 1500;
      p.src = fabric.hosts[src]->id();
      p.dst = fabric.hosts[dst]->id();
      fabric.hosts[src]->send(p);
    });
  };
  for (int i = 0; i < 50; ++i) {
    send(0, 1, 1, 100, microseconds(10 * i));       // frontend, leaf0 local
    send(2, 0, 3, 5000, microseconds(10 * i + 3));  // batch, cross-fabric
  }
  sim.run_until(milliseconds(2));

  std::printf("\nper-switch tenant observations (packets):\n");
  for (const auto& [name, index] : switch_index) {
    const auto counts = fleet.hypervisor(index).per_tenant_packets();
    std::printf("  %-8s", name.c_str());
    for (const auto& [tenant, count] : std::map<TenantId, std::uint64_t>(
             counts.begin(), counts.end())) {
      std::printf("  tenant %u: %llu", tenant,
                  static_cast<unsigned long long>(count));
    }
    std::printf("\n");
  }

  // Fleet-level adaptation: "realtime" never transmitted, so one tick
  // shrinks every switch's plan to the two active tenants — even on
  // switches that saw only ONE of them.
  RuntimeConfig rc;
  rc.activity_window = milliseconds(10);
  rc.min_reconfig_interval = 0;
  FleetTarget target(fleet);
  RuntimeController controller(target, rc);
  controller.tick(milliseconds(2));

  std::printf("\nafter fleet tick: active = {");
  const auto& active = controller.active_tenants();  // sorted ids
  for (const auto& spec : fleet.tenants()) {
    if (std::binary_search(active.begin(), active.end(), spec.id)) {
      std::printf(" %s", spec.name.c_str());
    }
  }
  std::printf(" }, every switch re-programmed:\n");
  for (const auto& [name, index] : switch_index) {
    const auto& plan = fleet.hypervisor(index).plan();
    std::printf("  %-8s plan: ", name.c_str());
    for (const auto& tp : plan.tenants) {
      std::printf("%s[%u,%u] ", tp.name.c_str(), tp.transform.out_min(),
                  tp.transform.out_max());
    }
    std::printf("\n");
  }
  std::printf("\nActivity observed on ANY switch keeps a tenant\n"
              "provisioned EVERYWHERE — the fleet is the §5 'network-\n"
              "wide perspective' on scheduling virtualization.\n");
  return 0;
}
