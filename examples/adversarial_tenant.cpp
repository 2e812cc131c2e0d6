// Adversarial-workload detection and quarantine (paper §2, Idea 2:
// "prevent adversarial workloads from potentially malicious tenants").
//
// Tenant "mallory" declares ranks in [0, 100] but stamps everything
// with rank 0 to jump the queue. The monitor flags the lie; the runtime
// controller demotes mallory to a strictly-lowest quarantine tier.
//
//   $ ./adversarial_tenant
#include <cstdio>
#include <memory>

#include "qvisor/backend.hpp"
#include "qvisor/qvisor.hpp"
#include "qvisor/runtime.hpp"

using namespace qv;
using namespace qv::qvisor;

namespace {

TenantSpec tenant(TenantId id, const std::string& name, Rank lo, Rank hi) {
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
  p.size_bytes = 1500;
  return p;
}

void show_plan(const Hypervisor& hv, const char* when) {
  std::printf("%s\n", when);
  for (const auto& tp : hv.plan().tenants) {
    std::printf("  %-8s tier %zu: ranks [%u, %u]\n", tp.name.c_str(),
                tp.tier, tp.transform.out_min(), tp.transform.out_max());
  }
}

}  // namespace

int main() {
  std::vector<TenantSpec> tenants = {
      tenant(1, "alice", 50, 150),
      tenant(2, "mallory", 0, 100),
  };
  const auto parsed = parse_policy("mallory + alice");
  Hypervisor hv(std::move(tenants), *parsed.policy,
                std::make_shared<PifoBackend>());
  hv.compile();
  show_plan(hv, "initial plan (mallory and alice share):");

  auto port = hv.make_port_scheduler();
  RuntimeConfig cfg;
  cfg.activity_window = milliseconds(100);
  cfg.min_reconfig_interval = 0;
  cfg.quarantine_adversarial = true;
  HypervisorTarget target(hv);
  RuntimeController controller(target, cfg);

  // Both tenants transmit; mallory's ranks sit far outside its declared
  // bounds (every packet claims rank 9999).
  for (int i = 0; i < 500; ++i) {
    port->enqueue(labeled(1, 50 + static_cast<Rank>(i % 100)),
                  microseconds(i));
    port->enqueue(labeled(2, 9999), microseconds(i));
  }
  while (port->dequeue(milliseconds(1))) {
  }

  const auto& obs = hv.monitor().observation(2);
  std::printf("\nmonitor after 500 packets/tenant:\n");
  std::printf("  mallory: %llu bounds violations of %llu packets -> %s\n",
              static_cast<unsigned long long>(obs.bounds_violations),
              static_cast<unsigned long long>(obs.packets),
              hv.monitor().verdict(2) == Verdict::kAdversarial
                  ? "ADVERSARIAL"
                  : "clean");
  std::printf("  alice  : %llu bounds violations -> %s\n",
              static_cast<unsigned long long>(
                  hv.monitor().observation(1).bounds_violations),
              hv.monitor().verdict(1) == Verdict::kClean ? "clean"
                                                         : "flagged");

  const bool adapted = controller.tick(milliseconds(1));
  std::printf("\ncontroller tick -> %s (%llu quarantine action)\n",
              adapted ? "re-synthesized" : "no change",
              static_cast<unsigned long long>(controller.quarantines()));
  show_plan(hv, "plan after quarantine (mallory demoted below alice):");
  return 0;
}
