// One scripted timeline drives the adaptation loop through each of its
// three deploy targets — one hypervisor, a fleet, the group control
// plane — and asserts the same tick outcomes and counters on every one:
// jail, a violation while jailed, no release at the window boundary,
// release after a full term, then an install fault that is retried on
// backoff, degrades the data plane once the budget is spent, and heals.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "control/control_plane.hpp"
#include "qvisor/backend.hpp"
#include "qvisor/fleet.hpp"
#include "qvisor/runtime.hpp"

namespace qv::control {
namespace {

using qvisor::RuntimeConfig;
using qvisor::RuntimeController;

constexpr TenantId kVillain = 3;

qvisor::TenantSpec tenant(TenantId id, const std::string& name) {
  qvisor::TenantSpec spec;
  spec.id = id;
  spec.name = name;
  spec.declared_bounds = {0, 99};
  return spec;
}

std::vector<qvisor::TenantSpec> tenants() {
  return {tenant(1, "gold"), tenant(2, "silver"), tenant(kVillain, "bulk")};
}

qvisor::OperatorPolicy policy() {
  return *qvisor::parse_policy("gold >> silver + bulk").policy;
}

qvisor::TenantContract villain_contract() {
  qvisor::TenantContract c;
  c.tenant = kVillain;
  c.rank_min = 0;
  c.rank_max = 99;
  return c;
}

/// A deploy target plus what the timeline needs around it: a port to
/// send through, a switch agent that can go dark, and the data plane's
/// epoch and degraded flag.
class Rig {
 public:
  virtual ~Rig() = default;
  virtual qvisor::DeployTarget& target() = 0;
  virtual void set_install_fault(bool on) = 0;
  virtual std::uint64_t epoch() const = 0;
  virtual bool degraded() const = 0;

  void send(TenantId t, Rank rank, TimeNs at, int packets) {
    for (int i = 0; i < packets; ++i) {
      Packet p;
      p.tenant = t;
      p.rank = rank;
      p.original_rank = rank;
      p.size_bytes = 100;
      port().enqueue(p, at);
    }
    while (port().dequeue(at)) {
    }
  }

 private:
  virtual sched::Scheduler& port() = 0;
};

class HypervisorRig final : public Rig {
 public:
  HypervisorRig()
      : hv_(tenants(), policy(), std::make_shared<qvisor::PifoBackend>()) {
    hv_.set_contract(villain_contract());
    EXPECT_TRUE(hv_.compile().ok);
    port_ = hv_.make_port_scheduler();
  }
  qvisor::DeployTarget& target() override { return target_; }
  void set_install_fault(bool on) override {
    hv_.set_install_fault(on ? qvisor::Hypervisor::InstallFault(
                                   [](std::uint64_t) { return true; })
                             : nullptr);
  }
  std::uint64_t epoch() const override { return hv_.plan_epoch(); }
  bool degraded() const override { return hv_.degraded(); }

 private:
  sched::Scheduler& port() override { return *port_; }

  qvisor::Hypervisor hv_;
  qvisor::HypervisorTarget target_{hv_};
  std::unique_ptr<sched::Scheduler> port_;  ///< detaches before hv_ dies
};

/// Two switches; the villain's traffic lands on the second while the
/// first switch's agent is the one that goes dark.
class FleetRig : public Rig {
 public:
  FleetRig(std::vector<qvisor::TenantSpec> specs, qvisor::OperatorPolicy op)
      : fleet_(std::move(specs), std::move(op),
               std::make_shared<qvisor::PifoBackend>()) {
    fleet_.add_switch("leaf0");
    fleet_.add_switch("leaf1");
    fleet_.set_contract(villain_contract());
    port_ = fleet_.make_port_scheduler(1);
  }
  void set_install_fault(bool on) override {
    fleet_.set_install_fault(
        on ? qvisor::Fleet::InstallFault(
                 [](std::size_t sw, std::uint64_t) { return sw == 0; })
           : nullptr);
  }
  std::uint64_t epoch() const override { return fleet_.committed_epoch(); }
  bool degraded() const override { return fleet_.degraded(); }

 protected:
  qvisor::Fleet fleet_;

 private:
  sched::Scheduler& port() override { return *port_; }

  std::unique_ptr<sched::Scheduler> port_;  ///< detaches before fleet_ dies
};

class PerTenantFleetRig final : public FleetRig {
 public:
  PerTenantFleetRig() : FleetRig(tenants(), policy()) {
    EXPECT_TRUE(fleet_.compile().ok);
  }
  qvisor::DeployTarget& target() override { return target_; }

 private:
  qvisor::FleetTarget target_{fleet_};
};

class GroupRig final : public FleetRig {
 public:
  GroupRig() : FleetRig({}, qvisor::OperatorPolicy{}), cp_(fleet_) {
    EXPECT_TRUE(cp_.deploy_text("group gold   = 1..1 bounds 0..99\n"
                                "group silver = 2..2 bounds 0..99\n"
                                "group bulk   = * bounds 0..99\n"
                                "policy gold >> silver + bulk\n")
                    .ok);
  }
  qvisor::DeployTarget& target() override { return target_; }

 private:
  ControlPlane cp_;
  GroupTarget target_{cp_};
};

std::unique_ptr<Rig> make_rig(const std::string& kind) {
  if (kind == "Hypervisor") return std::make_unique<HypervisorRig>();
  if (kind == "Fleet") return std::make_unique<PerTenantFleetRig>();
  return std::make_unique<GroupRig>();
}

class AdaptationLoop : public ::testing::TestWithParam<std::string> {};

TEST_P(AdaptationLoop, SameTimelineOnEveryTarget) {
  std::unique_ptr<Rig> rig = make_rig(GetParam());
  RuntimeConfig cfg;
  cfg.activity_window = milliseconds(200);  // nobody goes idle
  cfg.min_reconfig_interval = 0;
  cfg.quarantine_clean_window = milliseconds(10);
  cfg.retry_budget = 1;
  cfg.retry_backoff = milliseconds(2);
  cfg.retry_backoff_cap = milliseconds(8);
  RuntimeController loop(rig->target(), cfg);
  const std::vector<TenantId> jailed{kVillain};

  rig->send(1, 10, milliseconds(1), 5);
  rig->send(2, 10, milliseconds(1), 5);
  rig->send(kVillain, 5000, milliseconds(1), 200);  // out of bounds

  // 2 ms: jailed, one plan push.
  ASSERT_TRUE(loop.tick(milliseconds(2)));
  EXPECT_EQ(loop.quarantined(), jailed);
  EXPECT_EQ(loop.quarantines(), 1u);
  EXPECT_EQ(loop.adaptations(), 1u);
  const std::uint64_t jail_epoch = rig->epoch();

  // 5 ms: violates again while jailed.
  rig->send(kVillain, 5000, milliseconds(5), 200);

  // 15 ms is a full window past the last violation, but the violation
  // came after the jailing: the term restarts in place. No release,
  // no plan push.
  EXPECT_FALSE(loop.tick(milliseconds(15)));
  EXPECT_EQ(loop.unquarantines(), 0u);
  EXPECT_EQ(loop.quarantined(), jailed);
  EXPECT_EQ(rig->epoch(), jail_epoch);
  EXPECT_FALSE(loop.tick(milliseconds(20)));  // term restarted at 15 ms
  EXPECT_EQ(loop.quarantined(), jailed);

  // 26 ms: clean since 5 ms and a full term served since 15 ms.
  ASSERT_TRUE(loop.tick(milliseconds(26)));
  EXPECT_EQ(loop.unquarantines(), 1u);
  EXPECT_TRUE(loop.quarantined().empty());
  EXPECT_EQ(loop.adaptations(), 2u);

  // 30 ms: violates again, and a switch agent goes dark.
  rig->send(kVillain, 5000, milliseconds(30), 200);
  rig->set_install_fault(true);
  EXPECT_FALSE(loop.tick(milliseconds(31)));  // fails; retry due at 33
  EXPECT_EQ(loop.quarantines(), 2u);
  EXPECT_EQ(loop.quarantined(), jailed);
  EXPECT_EQ(loop.retries(), 0u);
  EXPECT_FALSE(loop.degraded());
  EXPECT_FALSE(loop.tick(milliseconds(32)));  // inside backoff
  EXPECT_EQ(loop.retries(), 0u);
  EXPECT_FALSE(loop.tick(milliseconds(33)));  // retry fails: budget spent
  EXPECT_EQ(loop.retries(), 1u);
  EXPECT_TRUE(loop.degraded());
  EXPECT_TRUE(rig->degraded());
  EXPECT_EQ(loop.degraded_entries(), 1u);

  // The agent comes back; the backoff doubled to 4 ms.
  rig->set_install_fault(false);
  EXPECT_FALSE(loop.tick(milliseconds(36)));
  ASSERT_TRUE(loop.tick(milliseconds(37)));
  EXPECT_EQ(loop.retries(), 2u);
  EXPECT_EQ(loop.recoveries(), 1u);
  EXPECT_FALSE(loop.degraded());
  EXPECT_FALSE(rig->degraded());
  EXPECT_EQ(loop.quarantined(), jailed);
  EXPECT_EQ(loop.adaptations(), 3u);
  EXPECT_GT(rig->epoch(), jail_epoch);
}

INSTANTIATE_TEST_SUITE_P(Targets, AdaptationLoop,
                         ::testing::Values("Hypervisor", "Fleet", "Group"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace qv::control
