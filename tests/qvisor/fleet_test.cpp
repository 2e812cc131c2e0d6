#include "qvisor/fleet.hpp"

#include <gtest/gtest.h>

#include "qvisor/backend.hpp"

namespace qv::qvisor {
namespace {

TenantSpec tenant(TenantId id, const std::string& name, Rank lo = 0,
                  Rank hi = 99) {
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

class FleetTest : public ::testing::Test {
 protected:
  FleetTest()
      : fleet_({tenant(1, "a"), tenant(2, "b"), tenant(3, "c")},
               *parse_policy("a >> b + c").policy,
               std::make_shared<PifoBackend>()) {
    fleet_.add_switch("leaf0");
    fleet_.add_switch("leaf1");
    fleet_.add_switch("spine0");
  }

  Fleet fleet_;
};

TEST_F(FleetTest, CompileDeploysEverywhere) {
  const auto result = fleet_.compile();
  ASSERT_TRUE(result.ok) << result.error;
  for (std::size_t s = 0; s < fleet_.switch_count(); ++s) {
    ASSERT_TRUE(fleet_.hypervisor(s).has_plan());
    EXPECT_EQ(fleet_.hypervisor(s).plan().tenants.size(), 3u);
  }
}

TEST_F(FleetTest, PlansIdenticalAcrossSwitches) {
  ASSERT_TRUE(fleet_.compile().ok);
  const auto& first = fleet_.hypervisor(0).plan();
  for (std::size_t s = 1; s < fleet_.switch_count(); ++s) {
    const auto& other = fleet_.hypervisor(s).plan();
    ASSERT_EQ(other.tenants.size(), first.tenants.size());
    for (std::size_t i = 0; i < first.tenants.size(); ++i) {
      EXPECT_EQ(other.tenants[i].transform, first.tenants[i].transform);
    }
  }
}

TEST_F(FleetTest, AllOrNothingOnFailure) {
  ASSERT_TRUE(fleet_.compile().ok);
  // Break the shared policy: mention a tenant nobody registered.
  fleet_.set_policy(*parse_policy("a >> ghost").policy);
  const auto result = fleet_.compile();
  EXPECT_FALSE(result.ok);
  // Old plans still installed everywhere (3 tenants, not fewer).
  for (std::size_t s = 0; s < fleet_.switch_count(); ++s) {
    EXPECT_EQ(fleet_.hypervisor(s).plan().tenants.size(), 3u);
  }
}

TEST_F(FleetTest, ObservationsAggregateAcrossSwitches) {
  ASSERT_TRUE(fleet_.compile().ok);
  auto port0 = fleet_.make_port_scheduler(0);
  auto port2 = fleet_.make_port_scheduler(2);
  // Tenant a only on switch 0; tenant b only on switch 2.
  for (int i = 0; i < 5; ++i) {
    port0->enqueue(labeled(1, 1), microseconds(i));
    port2->enqueue(labeled(2, 1), microseconds(10 + i));
  }
  const auto counts = fleet_.per_tenant_packets();
  EXPECT_EQ(counts.at(1), 5u);
  EXPECT_EQ(counts.at(2), 5u);
  ASSERT_TRUE(fleet_.last_seen(1).has_value());
  EXPECT_EQ(*fleet_.last_seen(2), microseconds(14));
  EXPECT_FALSE(fleet_.last_seen(3).has_value());
}

TEST_F(FleetTest, ControllerReactsToActivityAnywhere) {
  ASSERT_TRUE(fleet_.compile().ok);
  auto port0 = fleet_.make_port_scheduler(0);
  auto port1 = fleet_.make_port_scheduler(1);

  RuntimeConfig cfg;
  cfg.activity_window = milliseconds(10);
  cfg.min_reconfig_interval = 0;
  FleetTarget target(fleet_);
  RuntimeController controller(target, cfg);

  // a active on switch 0, c active on switch 1, b silent everywhere.
  for (int i = 0; i < 3; ++i) {
    port0->enqueue(labeled(1, 1), milliseconds(1));
    port1->enqueue(labeled(3, 1), milliseconds(1));
  }
  ASSERT_TRUE(controller.tick(milliseconds(2)));
  EXPECT_EQ(controller.active_tenants(), (std::vector<TenantId>{1, 3}));
  // Every switch's plan now provisions exactly {a, c}.
  for (std::size_t s = 0; s < fleet_.switch_count(); ++s) {
    EXPECT_EQ(fleet_.hypervisor(s).plan().tenants.size(), 2u);
    EXPECT_EQ(fleet_.hypervisor(s).plan().find("b"), nullptr);
  }
}

TEST_F(FleetTest, ControllerStableWithoutChange) {
  ASSERT_TRUE(fleet_.compile().ok);
  auto port0 = fleet_.make_port_scheduler(0);
  RuntimeConfig cfg;
  cfg.activity_window = milliseconds(10);
  cfg.min_reconfig_interval = 0;
  FleetTarget target(fleet_);
  RuntimeController controller(target, cfg);
  port0->enqueue(labeled(1, 1), milliseconds(1));
  EXPECT_TRUE(controller.tick(milliseconds(2)));
  port0->enqueue(labeled(1, 1), milliseconds(3));
  EXPECT_FALSE(controller.tick(milliseconds(4)));
  EXPECT_EQ(controller.adaptations(), 1u);
}

TEST_F(FleetTest, AdversarialUnionAcrossSwitches) {
  ASSERT_TRUE(fleet_.compile().ok);
  auto port1 = fleet_.make_port_scheduler(1);
  // Tenant c floods out-of-bounds ranks on switch 1 only.
  for (int i = 0; i < 200; ++i) {
    port1->enqueue(labeled(3, 5000), microseconds(i));
  }
  EXPECT_EQ(fleet_.adversarial(), (std::vector<TenantId>{3}));
}

TEST_F(FleetTest, UpsertTenantAppliesOnNextCompile) {
  ASSERT_TRUE(fleet_.compile().ok);
  fleet_.upsert_tenant(tenant(4, "d"));
  fleet_.set_policy(*parse_policy("a >> b + c >> d").policy);
  ASSERT_TRUE(fleet_.compile().ok);
  for (std::size_t s = 0; s < fleet_.switch_count(); ++s) {
    EXPECT_NE(fleet_.hypervisor(s).plan().find("d"), nullptr);
  }
}

// --- Two-phase installs, rollback, reconcile --------------------------------

TEST_F(FleetTest, EpochsAdvanceTogetherOnSuccess) {
  ASSERT_TRUE(fleet_.compile().ok);
  EXPECT_EQ(fleet_.committed_epoch(), 1u);
  EXPECT_TRUE(fleet_.epochs_consistent());
  for (std::size_t s = 0; s < fleet_.switch_count(); ++s) {
    EXPECT_EQ(fleet_.hypervisor(s).plan_epoch(), 1u);
  }
  ASSERT_TRUE(fleet_.compile_for({"a", "b"}).ok);
  EXPECT_EQ(fleet_.committed_epoch(), 2u);
  EXPECT_TRUE(fleet_.epochs_consistent());
}

TEST_F(FleetTest, PartialInstallFailureRollsEverySwitchBack) {
  ASSERT_TRUE(fleet_.compile().ok);
  const auto& good_plan = fleet_.hypervisor(0).plan();
  const std::size_t good_tenants = good_plan.tenants.size();

  // The LAST switch rejects epoch 2: switches 0 and 1 commit first and
  // must be rolled back to epoch 1.
  fleet_.set_install_fault([](std::size_t sw, std::uint64_t epoch) {
    return sw == 2 && epoch == 2;
  });
  const auto result = fleet_.compile_for({"a", "b"});
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("spine0"), std::string::npos) << result.error;

  EXPECT_EQ(fleet_.committed_epoch(), 1u);
  EXPECT_EQ(fleet_.rollbacks(), 2u);
  EXPECT_GE(fleet_.failed_installs(), 1u);
  EXPECT_TRUE(fleet_.epochs_consistent());
  for (std::size_t s = 0; s < fleet_.switch_count(); ++s) {
    EXPECT_EQ(fleet_.hypervisor(s).plan_epoch(), 1u);
    EXPECT_EQ(fleet_.hypervisor(s).plan().tenants.size(), good_tenants);
  }

  // Once the switch recovers, the same deploy goes through at a FRESH
  // epoch (2 was burned by the failed attempt).
  fleet_.set_install_fault({});
  ASSERT_TRUE(fleet_.compile_for({"a", "b"}).ok);
  EXPECT_EQ(fleet_.committed_epoch(), 3u);
  EXPECT_TRUE(fleet_.epochs_consistent());
}

TEST_F(FleetTest, UnreachableSwitchStaysDirtyUntilReconcile) {
  ASSERT_TRUE(fleet_.compile().ok);
  // Switch 1 is completely unreachable: it rejects the forward install
  // of epoch 2 AND any rollback pushes aimed at it.
  bool reachable = false;
  fleet_.set_install_fault([&reachable](std::size_t sw, std::uint64_t) {
    return sw == 1 && !reachable;
  });
  // Make switch 0 commit then need rolling back: switch 1's rejection
  // triggers the abort; switch 0 rolls back fine (its hook says yes).
  EXPECT_FALSE(fleet_.compile_for({"a", "b"}).ok);
  EXPECT_TRUE(fleet_.epochs_consistent());  // all still at epoch 1
  EXPECT_EQ(fleet_.committed_epoch(), 1u);

  // Now push a successful deploy while switch 1 is still dead — it must
  // fail and leave the fleet consistent at epoch 1.
  EXPECT_FALSE(fleet_.compile_for({"a", "c"}).ok);
  EXPECT_EQ(fleet_.committed_epoch(), 1u);

  // Reconcile while dead: no healing happens.
  EXPECT_EQ(fleet_.reconcile(), 0u);

  // The switch recovers and loses its running plan (agent reboot).
  reachable = true;
  fleet_.hypervisor(1).clear_plan();
  EXPECT_FALSE(fleet_.epochs_consistent());
  EXPECT_EQ(fleet_.reconcile(), 1u);
  EXPECT_EQ(fleet_.reconciles(), 1u);
  EXPECT_TRUE(fleet_.epochs_consistent());
  EXPECT_EQ(fleet_.hypervisor(1).plan_epoch(), fleet_.committed_epoch());
  EXPECT_EQ(fleet_.hypervisor(1).plan().tenants.size(),
            fleet_.hypervisor(0).plan().tenants.size());
}

TEST_F(FleetTest, FirstSwitchFailureRollsNothingBack) {
  ASSERT_TRUE(fleet_.compile().ok);
  fleet_.set_install_fault(
      [](std::size_t sw, std::uint64_t) { return sw == 0; });
  EXPECT_FALSE(fleet_.compile_for({"a", "b"}).ok);
  EXPECT_EQ(fleet_.rollbacks(), 0u);
  EXPECT_TRUE(fleet_.epochs_consistent());
}

TEST_F(FleetTest, HypervisorRollbackIsSingleLevel) {
  Hypervisor& hv = fleet_.hypervisor(0);
  ASSERT_TRUE(fleet_.compile().ok);
  ASSERT_TRUE(fleet_.compile_for({"a", "b"}).ok);
  EXPECT_EQ(hv.plan_epoch(), 2u);
  EXPECT_TRUE(hv.rollback());
  EXPECT_EQ(hv.plan_epoch(), 1u);
  EXPECT_EQ(hv.plan().tenants.size(), 3u);
  EXPECT_FALSE(hv.rollback()) << "undo log must be consumed on use";
}

TEST_F(FleetTest, ClearPlanDropsToSafeEmptyConfiguration) {
  ASSERT_TRUE(fleet_.compile().ok);
  auto port = fleet_.make_port_scheduler(0);
  fleet_.hypervisor(0).clear_plan();
  EXPECT_FALSE(fleet_.hypervisor(0).has_plan());
  EXPECT_EQ(fleet_.hypervisor(0).plan_epoch(), 0u);
  // The port still accepts packets on the best-effort path.
  EXPECT_TRUE(port->enqueue(labeled(1, 5), microseconds(1)));
  EXPECT_EQ(port->size(), 1u);
}

TEST_F(FleetTest, FailedDeployEmitsRuntimeTraceEvents) {
  obs::Tracer tracer(1024);
  tracer.set_mask(obs::kTraceAll);
  fleet_.set_tracer(&tracer);
  ASSERT_TRUE(fleet_.compile().ok);
  fleet_.set_install_fault(
      [](std::size_t sw, std::uint64_t) { return sw == 2; });
  EXPECT_FALSE(fleet_.compile_for({"a", "b"}, microseconds(5)).ok);
  const std::string json = tracer.to_json();
  EXPECT_NE(json.find("install:failed"), std::string::npos);
  EXPECT_NE(json.find("rollback"), std::string::npos);
}

// --- the adaptation loop on a FleetTarget -----------------------------------

TEST_F(FleetTest, ControllerQuarantinesAndForgivesAcrossSwitches) {
  ASSERT_TRUE(fleet_.compile().ok);
  auto port0 = fleet_.make_port_scheduler(0);
  auto port1 = fleet_.make_port_scheduler(1);

  RuntimeConfig cfg;
  cfg.activity_window = milliseconds(200);
  cfg.min_reconfig_interval = 0;
  cfg.quarantine_clean_window = milliseconds(10);
  FleetTarget target(fleet_);
  RuntimeController controller(target, cfg);

  // a is a good citizen on switch 0; c floods out-of-bounds ranks on
  // switch 1 ONLY — the quarantine verdict still applies fleet-wide.
  port0->enqueue(labeled(1, 1), milliseconds(1));
  for (int i = 0; i < 200; ++i) {
    port1->enqueue(labeled(3, 500), milliseconds(1));
  }
  while (port1->dequeue(milliseconds(1))) {
  }
  ASSERT_TRUE(controller.tick(milliseconds(2)));
  EXPECT_EQ(controller.quarantines(), 1u);
  // The jail deploys everywhere, two-phase: all switches at one epoch.
  EXPECT_TRUE(fleet_.epochs_consistent());
  for (std::size_t s = 0; s < fleet_.switch_count(); ++s) {
    EXPECT_NE(fleet_.hypervisor(s).plan().find("c"), nullptr);
  }

  // After a clean window with no further violations, c is forgiven on
  // every switch in one tick.
  EXPECT_FALSE(controller.tick(milliseconds(6)));
  ASSERT_TRUE(controller.tick(milliseconds(12)));
  EXPECT_EQ(controller.unquarantines(), 1u);
  EXPECT_EQ(fleet_.hypervisor(1).monitor().verdict(3), Verdict::kClean);
}

TEST_F(FleetTest, ControllerDegradesFleetWideAndRecovers) {
  ASSERT_TRUE(fleet_.compile().ok);
  auto port0 = fleet_.make_port_scheduler(0);

  RuntimeConfig cfg;
  cfg.activity_window = milliseconds(200);
  cfg.min_reconfig_interval = 0;
  cfg.retry_budget = 1;
  cfg.retry_backoff = milliseconds(1);
  cfg.retry_backoff_cap = milliseconds(1);
  FleetTarget target(fleet_);
  RuntimeController controller(target, cfg);

  // Switch 2's agent goes dark: every deploy attempt fails fleet-wide
  // (all-or-nothing), and the budget runs out after one retry.
  fleet_.set_install_fault(
      [](std::size_t sw, std::uint64_t) { return sw == 2; });
  port0->enqueue(labeled(1, 1), milliseconds(1));
  EXPECT_FALSE(controller.tick(milliseconds(2)));  // failure #1
  EXPECT_FALSE(controller.degraded());
  EXPECT_FALSE(controller.tick(milliseconds(3)));  // retry exhausts budget
  EXPECT_TRUE(controller.degraded());
  EXPECT_EQ(controller.degraded_entries(), 1u);
  EXPECT_TRUE(fleet_.degraded());
  for (std::size_t s = 0; s < fleet_.switch_count(); ++s) {
    EXPECT_TRUE(fleet_.hypervisor(s).degraded());
  }

  // Agent recovers: the next due retry redeploys and lifts degraded
  // mode everywhere.
  fleet_.set_install_fault({});
  ASSERT_TRUE(controller.tick(milliseconds(4)));
  EXPECT_FALSE(controller.degraded());
  EXPECT_FALSE(fleet_.degraded());
  EXPECT_EQ(controller.recoveries(), 1u);
  EXPECT_EQ(controller.retries(), 2u);
  EXPECT_TRUE(fleet_.epochs_consistent());
}

TEST_F(FleetTest, ControllerTickRunsAntiEntropy) {
  ASSERT_TRUE(fleet_.compile().ok);
  RuntimeConfig cfg;
  cfg.min_reconfig_interval = milliseconds(1);
  FleetTarget target(fleet_);
  RuntimeController controller(target, cfg);
  ASSERT_TRUE(controller.tick(milliseconds(1)));  // the loop's first deploy

  // Switch 1 reboots and loses its plan; the controller's next tick
  // heals it via reconcile() even though the tenant set is unchanged.
  fleet_.hypervisor(1).clear_plan();
  EXPECT_FALSE(fleet_.epochs_consistent());
  EXPECT_FALSE(controller.tick(milliseconds(5)));
  EXPECT_TRUE(fleet_.epochs_consistent());
  EXPECT_EQ(fleet_.reconciles(), 1u);
}

TEST_F(FleetTest, ControllerExportsSelfHealingCounters) {
  ASSERT_TRUE(fleet_.compile().ok);
  FleetTarget target(fleet_);
  RuntimeController controller(target);
  obs::Registry reg;
  controller.export_metrics(reg, "fleet.ctl");
  const auto counters = reg.counter_snapshot();
  EXPECT_TRUE(counters.contains("fleet.ctl.retries"));
  EXPECT_TRUE(counters.contains("fleet.ctl.degraded_entries"));
  EXPECT_TRUE(counters.contains("fleet.ctl.unquarantines"));
  EXPECT_EQ(reg.gauge_value("fleet.ctl.degraded"), 0.0);
}

}  // namespace
}  // namespace qv::qvisor
