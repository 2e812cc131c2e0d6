// ControlPlane: incremental re-synthesis through the two-phase fleet
// commit, quarantine-by-policy-rewrite, and the adaptation loop driving
// it through a GroupTarget.
#include "control/control_plane.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <tuple>
#include <vector>

#include "obs/trace.hpp"
#include "qvisor/backend.hpp"

namespace qv::control {
namespace {

using qvisor::Fleet;
using qvisor::Hypervisor;

constexpr const char* kBase =
    "group gold   = 0..9 bounds 0..99\n"
    "group silver = 10..19 bounds 0..99\n"
    "group bulk   = * bounds 0..99\n"
    "policy gold >> silver + bulk\n";

Packet labeled(TenantId t, Rank rank) {
  Packet p;
  p.tenant = t;
  p.rank = rank;
  p.original_rank = rank;
  p.size_bytes = 100;
  return p;
}

class ControlPlaneTest : public ::testing::Test {
 protected:
  ControlPlaneTest()
      // Group mode ignores the fleet's per-tenant configuration; an
      // empty tenant set + empty policy is the natural starting state.
      : fleet_({}, qvisor::OperatorPolicy{},
               std::make_shared<qvisor::PifoBackend>()),
        cp_(fleet_) {
    fleet_.add_switch("leaf0");
    fleet_.add_switch("leaf1");
    fleet_.add_switch("spine0");
  }

  Fleet fleet_;
  ControlPlane cp_;
};

TEST_F(ControlPlaneTest, FirstDeployIsFullAndFleetWide) {
  const auto r = cp_.deploy_text(kBase);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.incremental);
  EXPECT_FALSE(r.noop);
  EXPECT_GT(r.latency_ns, 0u);
  EXPECT_EQ(cp_.full_deploys(), 1u);
  ASSERT_NE(cp_.deployed(), nullptr);
  EXPECT_EQ(cp_.deployed()->group_count(), 3u);
  EXPECT_TRUE(fleet_.epochs_consistent());
  for (std::size_t s = 0; s < fleet_.switch_count(); ++s) {
    Hypervisor& hv = fleet_.hypervisor(s);
    ASSERT_TRUE(hv.has_group_plan());
    EXPECT_FALSE(hv.has_plan());  // mode exclusivity
    EXPECT_EQ(hv.group_plan()->group_count(), 3u);
    EXPECT_EQ(hv.plan_epoch(), fleet_.committed_epoch());
  }
  EXPECT_EQ(fleet_.committed_group_plan(), cp_.deployed());
}

TEST_F(ControlPlaneTest, UnchangedPolicyIsANoopThatSkipsTheFleet) {
  ASSERT_TRUE(cp_.deploy_text(kBase).ok);
  const std::uint64_t epoch = fleet_.committed_epoch();
  const auto r = cp_.deploy_text(kBase);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.noop);
  EXPECT_TRUE(r.delta.empty());
  EXPECT_EQ(cp_.noop_deploys(), 1u);
  EXPECT_EQ(fleet_.committed_epoch(), epoch);  // fleet untouched
}

TEST_F(ControlPlaneTest, WeightEditTakesTheIncrementalPath) {
  ASSERT_TRUE(cp_.deploy_text(kBase).ok);
  const auto r = cp_.deploy_text(
      "group gold   = 0..9 bounds 0..99\n"
      "group silver = 10..19 weight 2 bounds 0..99\n"
      "group bulk   = * bounds 0..99\n"
      "policy gold >> silver + bulk\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.incremental);
  EXPECT_FALSE(r.delta.full);
  EXPECT_FALSE(r.delta.index_changed);
  EXPECT_EQ(cp_.incremental_deploys(), 1u);
  EXPECT_EQ(cp_.incremental_latency().count(), 1u);
  // The new epoch committed everywhere all the same.
  EXPECT_TRUE(fleet_.epochs_consistent());
  EXPECT_EQ(fleet_.committed_epoch(), 2u);
}

TEST_F(ControlPlaneTest, GroupCountChangeFallsBackToFullInstall) {
  ASSERT_TRUE(cp_.deploy_text(kBase).ok);
  const auto r = cp_.deploy_text(
      "group gold   = 0..9 bounds 0..99\n"
      "group bulk   = * bounds 0..99\n"
      "policy gold >> bulk\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.incremental);
  EXPECT_TRUE(r.delta.full);
  EXPECT_EQ(cp_.full_deploys(), 2u);
}

TEST_F(ControlPlaneTest, ParseAndCompileErrorsDoNotTouchTheFleet) {
  ASSERT_TRUE(cp_.deploy_text(kBase).ok);
  const auto r = cp_.deploy_text("group a = 9..0\npolicy a\n");
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
  EXPECT_EQ(cp_.failed_deploys(), 1u);
  EXPECT_EQ(fleet_.committed_epoch(), 1u);
  ASSERT_NE(cp_.current_policy(), nullptr);
  EXPECT_EQ(cp_.deployed()->group_count(), 3u);  // old plan intact
}

TEST_F(ControlPlaneTest, PartialInstallFailureRollsTheFleetBack) {
  ASSERT_TRUE(cp_.deploy_text(kBase).ok);
  fleet_.set_install_fault(
      [](std::size_t sw, std::uint64_t epoch) { return sw == 2 && epoch == 2; });
  const auto r = cp_.deploy_text(
      "group gold   = 0..9 weight 2 bounds 0..99\n"
      "group silver = 10..19 bounds 0..99\n"
      "group bulk   = * bounds 0..99\n"
      "policy gold >> silver + bulk\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("spine0"), std::string::npos) << r.error;
  EXPECT_EQ(cp_.failed_deploys(), 1u);
  // Every switch back at epoch 1 with the ORIGINAL plan.
  EXPECT_EQ(fleet_.committed_epoch(), 1u);
  EXPECT_EQ(fleet_.rollbacks(), 2u);
  EXPECT_TRUE(fleet_.epochs_consistent());
  for (std::size_t s = 0; s < fleet_.switch_count(); ++s) {
    EXPECT_EQ(fleet_.hypervisor(s).plan_epoch(), 1u);
    ASSERT_TRUE(fleet_.hypervisor(s).has_group_plan());
  }
  // ControlPlane state tracks the fleet: the deployed plan is still the
  // old one, so the SAME edit retried later diffs incrementally.
  fleet_.set_install_fault({});
  const auto retry = cp_.deploy_text(
      "group gold   = 0..9 weight 2 bounds 0..99\n"
      "group silver = 10..19 bounds 0..99\n"
      "group bulk   = * bounds 0..99\n"
      "policy gold >> silver + bulk\n");
  ASSERT_TRUE(retry.ok) << retry.error;
  EXPECT_TRUE(retry.incremental);
  EXPECT_EQ(fleet_.committed_epoch(), 3u);  // epoch 2 burned by the abort
}

TEST_F(ControlPlaneTest, StagedWaveRetriesWithTheSameSwitchUnreachable) {
  // ISSUE 9 satellite: retry-after-partial-install when the SAME
  // switch stays unreachable across consecutive wave attempts. The
  // waves share one staged epoch, so each retry must be idempotent for
  // switches that already took it and must re-install only the wave's
  // rolled-back members.
  ASSERT_TRUE(cp_.deploy_text(kBase).ok);
  const std::uint64_t lkg_epoch = fleet_.committed_epoch();

  const auto staged = cp_.stage_text(
      "group gold   = 0..9 weight 2 bounds 0..99\n"
      "group silver = 10..19 bounds 0..99\n"
      "group bulk   = * bounds 0..99\n"
      "policy gold >> silver + bulk\n");
  ASSERT_TRUE(staged.ok) << staged.error;
  ASSERT_TRUE(cp_.staged());

  // Canary wave: switch 0 only.
  std::string err;
  ASSERT_TRUE(cp_.commit_wave({0}, /*now=*/-1, &err)) << err;
  EXPECT_EQ(fleet_.staged_switches(), 1u);

  // Wave 2 holds switches 1 and 2; switch 2 rejects every staged
  // install across consecutive attempts.
  std::uint64_t rejections = 0;
  fleet_.set_install_fault(
      [&rejections, staged_epoch = staged.epoch](std::size_t idx,
                                                 std::uint64_t epoch) {
        if (idx == 2 && epoch == staged_epoch) {
          ++rejections;
          return true;
        }
        return false;
      });
  for (int attempt = 0; attempt < 2; ++attempt) {
    EXPECT_FALSE(cp_.commit_wave({1, 2}, -1, &err));
    // The failed attempt rolled switch 1 back: no partial wave lingers,
    // and the canary keeps its staged install (idempotent skip).
    EXPECT_EQ(fleet_.staged_switches(), 1u);
    EXPECT_EQ(fleet_.hypervisor(1).plan_epoch(), lkg_epoch);
    EXPECT_EQ(fleet_.hypervisor(2).plan_epoch(), lkg_epoch);
  }
  EXPECT_EQ(rejections, 2u);
  // Finalize is impossible while a switch is missing the staged epoch.
  EXPECT_FALSE(cp_.finalize_staged(&err));

  // The switch heals; the SAME wave retried now converges, and only
  // the members the rollbacks undid are re-installed.
  fleet_.set_install_fault({});
  ASSERT_TRUE(cp_.commit_wave({1, 2}, -1, &err)) << err;
  EXPECT_EQ(fleet_.staged_switches(), 3u);
  ASSERT_TRUE(cp_.finalize_staged(&err)) << err;
  EXPECT_FALSE(cp_.staged());
  EXPECT_TRUE(fleet_.epochs_consistent());
  EXPECT_EQ(fleet_.committed_epoch(), staged.epoch);
  EXPECT_EQ(cp_.deploys(), 2u);
}

TEST_F(ControlPlaneTest, AbortStagedRestoresLastKnownGoodFleetWide) {
  ASSERT_TRUE(cp_.deploy_text(kBase).ok);
  const std::uint64_t lkg_epoch = fleet_.committed_epoch();
  const auto staged = cp_.stage_text(
      "group gold   = 0..9 weight 3 bounds 0..99\n"
      "group silver = 10..19 bounds 0..99\n"
      "group bulk   = * bounds 0..99\n"
      "policy gold >> silver + bulk\n");
  ASSERT_TRUE(staged.ok) << staged.error;
  std::string err;
  ASSERT_TRUE(cp_.commit_wave({0, 1}, -1, &err)) << err;
  EXPECT_EQ(fleet_.staged_switches(), 2u);

  // Deploys are refused mid-rollout: a concurrent fleet-wide install
  // would tear the epoch sequence the waves converge on.
  EXPECT_FALSE(cp_.deploy_text(kBase).ok);

  cp_.abort_staged();
  EXPECT_FALSE(cp_.staged());
  EXPECT_TRUE(fleet_.epochs_consistent());
  EXPECT_EQ(fleet_.committed_epoch(), lkg_epoch);
  for (std::size_t s = 0; s < fleet_.switch_count(); ++s) {
    EXPECT_EQ(fleet_.hypervisor(s).plan_epoch(), lkg_epoch) << s;
  }
  // The staged plan never became the reconcile target.
  EXPECT_EQ(fleet_.reconcile(), 0u);
}

TEST_F(ControlPlaneTest, RejectedGroupAndWaveInstallsTraceTheirRollbacks) {
  obs::Tracer tracer(1024);
  tracer.set_mask(obs::kTraceAll);
  fleet_.set_tracer(&tracer);
  ASSERT_TRUE(cp_.deploy_text(kBase).ok);
  const auto rejects_switch_2 = [](std::size_t idx, std::uint64_t) {
    return idx == 2;
  };

  // A fleet-wide group deploy rejected on switch 2 rolls back 0 and 1.
  fleet_.set_install_fault(rejects_switch_2);
  EXPECT_FALSE(cp_.deploy_text("group gold   = 0..9 weight 2 bounds 0..99\n"
                               "group silver = 10..19 bounds 0..99\n"
                               "group bulk   = * bounds 0..99\n"
                               "policy gold >> silver + bulk\n",
                               microseconds(5))
                   .ok);

  // A staged wave {1, 2} after a canary on 0: only switch 1 is fresh
  // in the failed wave, so only it rolls back.
  fleet_.set_install_fault({});
  const auto staged = cp_.stage_text(
      "group gold   = 0..9 weight 3 bounds 0..99\n"
      "group silver = 10..19 bounds 0..99\n"
      "group bulk   = * bounds 0..99\n"
      "policy gold >> silver + bulk\n");
  ASSERT_TRUE(staged.ok) << staged.error;
  std::string err;
  ASSERT_TRUE(cp_.commit_wave({0}, microseconds(6), &err)) << err;
  fleet_.set_install_fault(rejects_switch_2);
  EXPECT_FALSE(cp_.commit_wave({1, 2}, microseconds(7), &err));

  using Instant = std::tuple<std::string, TimeNs, std::uint64_t>;
  std::vector<Instant> seen;
  for (const obs::TraceEvent& e : tracer.events()) {
    if (e.ph != 'i' || e.arg_name == nullptr ||
        std::strcmp(e.arg_name, "switch") != 0) {
      continue;
    }
    seen.emplace_back(e.name, e.ts, e.arg);
  }
  const std::vector<Instant> expected = {
      {"install:failed", microseconds(5), 2},
      {"rollback", microseconds(5), 0},
      {"rollback", microseconds(5), 1},
      {"wave:install_failed", microseconds(7), 2},
      {"rollback", microseconds(7), 1},
  };
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(fleet_.failed_installs(), 2u);
  EXPECT_EQ(fleet_.rollbacks(), 3u);
}

TEST_F(ControlPlaneTest, ReconcileHealsARebootedSwitchToTheGroupPlan) {
  ASSERT_TRUE(cp_.deploy_text(kBase).ok);
  fleet_.hypervisor(1).clear_plan();
  EXPECT_FALSE(fleet_.epochs_consistent());
  EXPECT_EQ(fleet_.reconcile(), 1u);
  EXPECT_TRUE(fleet_.epochs_consistent());
  ASSERT_TRUE(fleet_.hypervisor(1).has_group_plan());
  EXPECT_EQ(fleet_.hypervisor(1).group_plan()->group_count(), 3u);
  EXPECT_EQ(fleet_.hypervisor(1).plan_epoch(), fleet_.committed_epoch());
}

TEST_F(ControlPlaneTest, PortsScheduleThroughTheGroupTable) {
  ASSERT_TRUE(cp_.deploy_text(kBase).ok);
  auto port = fleet_.make_port_scheduler(0);
  // A gold tenant (id 3) and a bulk tenant (id 77777): gold's band is
  // strictly above, so it dequeues first despite arriving second.
  ASSERT_TRUE(port->enqueue(labeled(77'777, 0), 1));
  ASSERT_TRUE(port->enqueue(labeled(3, 50), 2));
  const auto first = port->dequeue(3);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->tenant, 3u);
  const auto second = port->dequeue(4);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->tenant, 77'777u);
}

TEST_F(ControlPlaneTest, QuarantineJailsIdsIntoTheBottomTier) {
  ASSERT_TRUE(cp_.deploy_text(kBase).ok);
  // First quarantine adds the jail group: structural, full install.
  const auto r = cp_.quarantine({3, 4});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.incremental);
  EXPECT_EQ(cp_.quarantined(), (std::vector<TenantId>{3, 4}));
  ASSERT_NE(cp_.deployed(), nullptr);
  EXPECT_EQ(cp_.deployed()->group_count(), 4u);
  // The operator's intent is unchanged — the jail is an overlay.
  EXPECT_EQ(cp_.current_policy()->groups.size(), 3u);

  // Jailed gold traffic now ranks BELOW everything, bulk included.
  auto port = fleet_.make_port_scheduler(0);
  ASSERT_TRUE(port->enqueue(labeled(3, 0), 1));       // jailed, best rank
  ASSERT_TRUE(port->enqueue(labeled(77'777, 99), 2)); // bulk, worst rank
  ASSERT_TRUE(port->enqueue(labeled(5, 99), 3));      // still-gold
  const auto first = port->dequeue(4);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->tenant, 5u);
  const auto second = port->dequeue(5);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->tenant, 77'777u);
  const auto third = port->dequeue(6);
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->tenant, 3u);
}

TEST_F(ControlPlaneTest, QuarantineMembershipChangesAreIncremental) {
  ASSERT_TRUE(cp_.deploy_text(kBase).ok);
  ASSERT_TRUE(cp_.quarantine({3}).ok);  // creates the jail tier (full)
  const auto more = cp_.quarantine({3, 12});
  ASSERT_TRUE(more.ok) << more.error;
  EXPECT_TRUE(more.incremental);  // same group count, membership moved
  EXPECT_TRUE(more.delta.index_changed);
  const auto fewer = cp_.quarantine({12});
  ASSERT_TRUE(fewer.ok) << fewer.error;
  EXPECT_TRUE(fewer.incremental);
  // Unchanged set: no-op.
  EXPECT_TRUE(cp_.quarantine({12}).noop);
  // Emptying the set removes the jail group: structural again.
  const auto none = cp_.quarantine({});
  ASSERT_TRUE(none.ok) << none.error;
  EXPECT_FALSE(none.incremental);
  EXPECT_EQ(cp_.deployed()->group_count(), 3u);
}

// kBase with silver's rank bounds widened: one group's transform moves,
// the group count and membership stay.
constexpr const char* kSilverEdit =
    "group gold   = 0..9 bounds 0..99\n"
    "group silver = 10..19 bounds 0..999\n"
    "group bulk   = * bounds 0..99\n"
    "policy gold >> silver + bulk\n";

/// One packet per (id, rank) through `port`, drained: the dequeue order
/// as (tenant, original rank, rewritten rank).
std::vector<std::tuple<TenantId, Rank, Rank>> drain_ranks(
    sched::Scheduler& port) {
  // Gold, silver, the catch-all, and a catch-all id past the dense index.
  for (const TenantId id : {3u, 12u, 500u, GroupIndex::kDenseLimit + 7}) {
    for (const Rank rank : {0u, 40u, 99u}) {
      EXPECT_TRUE(port.enqueue(labeled(id, rank), 0));
    }
  }
  std::vector<std::tuple<TenantId, Rank, Rank>> out;
  while (auto p = port.dequeue(0)) {
    out.emplace_back(p->tenant, p->original_rank, p->rank);
  }
  return out;
}

TEST_F(ControlPlaneTest, IncrementalInstallOnALivePortRanksLikeAFullInstall) {
  ASSERT_TRUE(cp_.deploy_text(kBase).ok);
  // The port exists before the edit, so the edit reaches it through the
  // per-port delta path, not the port constructor's full install.
  auto port = fleet_.make_port_scheduler(0);
  const auto r = cp_.deploy_text(kSilverEdit);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_TRUE(r.incremental);
  EXPECT_EQ(r.delta.changed_groups, (std::vector<std::uint32_t>{1}));

  // Reference: the same text installed whole onto a live port.
  Fleet ref_fleet({}, qvisor::OperatorPolicy{},
                  std::make_shared<qvisor::PifoBackend>());
  ref_fleet.add_switch("ref");
  ControlPlane ref(ref_fleet);
  ASSERT_TRUE(ref.deploy_text(kBase).ok);
  auto ref_port = ref_fleet.make_port_scheduler(0);
  const auto edit = parse_grouped_policy(kSilverEdit);
  ASSERT_TRUE(edit.ok()) << edit.error;
  const auto full = ref.deploy_full(*edit.value);
  ASSERT_TRUE(full.ok) << full.error;
  ASSERT_FALSE(full.incremental);

  const auto got = drain_ranks(*port);
  EXPECT_EQ(got.size(), 12u);
  EXPECT_EQ(got, drain_ranks(*ref_port));
}

TEST_F(ControlPlaneTest, GroupDeltaOnAPerTenantPortInstallsInFull) {
  // A port whose pre-processor runs a per-tenant plan has no group
  // table to patch: the delta falls back to a full group install.
  qvisor::TenantSpec only;
  only.id = 1;
  only.name = "only";
  only.declared_bounds = {0, 99};
  Hypervisor hv({only}, *qvisor::parse_policy("only").policy,
                std::make_shared<qvisor::PifoBackend>());
  ASSERT_TRUE(hv.compile().ok);
  auto port = hv.make_port_scheduler();
  auto* qp = dynamic_cast<qvisor::QvisorPort*>(port.get());
  ASSERT_NE(qp, nullptr);
  ASSERT_FALSE(qp->preprocessor().group_mode());

  const GroupCompiler compiler;
  const auto base = compiler.compile_text(kBase);
  const auto edit = compiler.compile_text(kSilverEdit);
  ASSERT_TRUE(base.ok() && edit.ok());
  const GroupPlanDelta delta = diff_group_plans(*base.plan, *edit.plan);
  ASSERT_FALSE(delta.full);
  qp->apply_group_delta(*edit.plan, delta, /*epoch=*/7);
  EXPECT_TRUE(qp->preprocessor().group_mode());
  EXPECT_EQ(qp->installed_epoch(), 7u);

  // Same rewrites as a port that took the edit whole (the per-tenant
  // port's hardware queue was sized for the old plan, so compare the
  // rewrites, not the dequeue order).
  ASSERT_TRUE(cp_.deploy_text(kSilverEdit).ok);
  auto ref_port = fleet_.make_port_scheduler(0);
  auto got = drain_ranks(*port);
  auto want = drain_ranks(*ref_port);
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
}

TEST_F(ControlPlaneTest, QuarantineRequiresADeployedPolicy) {
  const auto r = cp_.quarantine({1});
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
  EXPECT_TRUE(cp_.quarantined().empty());  // set restored on failure
}

TEST_F(ControlPlaneTest, ExportsDeployCountersAndPlanMemory) {
  ASSERT_TRUE(cp_.deploy_text(kBase).ok);
  ASSERT_TRUE(cp_.deploy_text(kBase).ok);  // noop
  obs::Registry reg;
  cp_.export_metrics(reg, "cp");
  const auto counters = reg.counter_snapshot();
  EXPECT_EQ(counters.at("cp.deploys"), 1u);  // noops don't commit
  EXPECT_EQ(counters.at("cp.full_deploys"), 1u);
  EXPECT_EQ(counters.at("cp.noop_deploys"), 1u);
  EXPECT_EQ(reg.gauge_value("cp.plan.groups"), 3.0);
  EXPECT_GT(reg.gauge_value("cp.plan.table_bytes"), 0.0);
  EXPECT_GT(reg.gauge_value("cp.plan.index_bytes"), 0.0);
  EXPECT_GT(reg.gauge_value("cp.resynthesis.full.count"), 0.0);
}

// --- the adaptation loop on a GroupTarget -----------------------------------

class GroupControllerTest : public ControlPlaneTest {
 protected:
  GroupControllerTest() {
    EXPECT_TRUE(cp_.deploy_text(kBase).ok);
    // Make out-of-bounds ranks a contract violation for tenant 3 so the
    // monitor can escalate it to adversarial.
    qvisor::TenantContract c;
    c.tenant = 3;
    c.rank_min = 0;
    c.rank_max = 99;
    fleet_.set_contract(c);
  }
};

TEST_F(GroupControllerTest, QuarantinesAdversarialTenantFleetWide) {
  auto port = fleet_.make_port_scheduler(1);
  for (int i = 0; i < 200; ++i) {
    port->enqueue(labeled(3, 5000), microseconds(i));  // out of bounds
  }
  ASSERT_EQ(fleet_.adversarial(), (std::vector<TenantId>{3}));

  qvisor::RuntimeConfig cfg;
  cfg.min_reconfig_interval = 0;
  GroupTarget target(cp_);
  qvisor::RuntimeController ctl(target, cfg);
  ASSERT_TRUE(ctl.tick(milliseconds(1)));
  EXPECT_EQ(ctl.quarantines(), 1u);
  EXPECT_EQ(ctl.quarantined(), (std::vector<TenantId>{3}));
  EXPECT_EQ(cp_.quarantined(), (std::vector<TenantId>{3}));
  EXPECT_EQ(cp_.deployed()->group_count(), 4u);  // jail tier live
  EXPECT_TRUE(fleet_.epochs_consistent());
  // Steady state: nothing new to do.
  EXPECT_FALSE(ctl.tick(milliseconds(2)));
  EXPECT_EQ(ctl.adaptations(), 1u);
}

TEST_F(GroupControllerTest, ForgivesAfterACleanWindow) {
  auto port = fleet_.make_port_scheduler(0);
  for (int i = 0; i < 200; ++i) {
    port->enqueue(labeled(3, 5000), milliseconds(1));
  }
  qvisor::RuntimeConfig cfg;
  cfg.min_reconfig_interval = 0;
  cfg.quarantine_clean_window = milliseconds(10);
  GroupTarget target(cp_);
  qvisor::RuntimeController ctl(target, cfg);
  ASSERT_TRUE(ctl.tick(milliseconds(2)));
  ASSERT_EQ(ctl.quarantined(), (std::vector<TenantId>{3}));
  // Still inside the clean window: stays jailed.
  EXPECT_FALSE(ctl.tick(milliseconds(6)));
  // Window elapsed with no fresh violations: released fleet-wide.
  ASSERT_TRUE(ctl.tick(milliseconds(12)));
  EXPECT_EQ(ctl.unquarantines(), 1u);
  EXPECT_TRUE(ctl.quarantined().empty());
  EXPECT_TRUE(cp_.quarantined().empty());
  EXPECT_EQ(cp_.deployed()->group_count(), 3u);
  EXPECT_EQ(fleet_.hypervisor(0).monitor().verdict(3),
            qvisor::Verdict::kClean);
}

TEST_F(GroupControllerTest, RecidivistAtForgivenessBoundaryDoesNotFlap) {
  // Jail tenant 3, let it violate AGAIN while jailed, then tick exactly
  // at the forgiveness-window boundary. The buggy sequence would be
  // release (structural recompile: jail tier removed) followed by
  // re-jail a tick later (another structural recompile) — a plan flap
  // with hostile traffic running at gold priority in between. The
  // controller must instead re-quarantine in place: membership
  // unchanged, zero plan pushes, jail clock restarted.
  auto port = fleet_.make_port_scheduler(0);
  for (int i = 0; i < 200; ++i) {
    port->enqueue(labeled(3, 5000), milliseconds(1));
  }
  qvisor::RuntimeConfig cfg;
  cfg.min_reconfig_interval = 0;
  cfg.quarantine_clean_window = milliseconds(10);
  GroupTarget target(cp_);
  qvisor::RuntimeController ctl(target, cfg);
  ASSERT_TRUE(ctl.tick(milliseconds(2)));
  ASSERT_EQ(ctl.quarantined(), (std::vector<TenantId>{3}));
  ASSERT_EQ(cp_.deployed()->group_count(), 4u);  // jail tier live

  // Recidivism while jailed: fresh violations at ms 5.
  for (int i = 0; i < 200; ++i) {
    port->enqueue(labeled(3, 5000), milliseconds(5));
  }
  // ms 15 is EXACTLY window past the last violation: the clean-window
  // test alone would release. It must not — no plan change at all.
  EXPECT_FALSE(ctl.tick(milliseconds(15)));
  EXPECT_EQ(ctl.unquarantines(), 0u);
  EXPECT_EQ(ctl.quarantined(), (std::vector<TenantId>{3}));
  EXPECT_EQ(cp_.deployed()->group_count(), 4u);  // still jailed: no flap
  EXPECT_EQ(ctl.adaptations(), 1u);              // only the original jail

  // A tick shortly after must not release either (the jail clock
  // restarted at ms 15: the tenant re-earns a FULL clean window).
  EXPECT_FALSE(ctl.tick(milliseconds(20)));
  EXPECT_EQ(ctl.quarantined(), (std::vector<TenantId>{3}));

  // Clean since ms 5: a full window past the re-quarantine releases.
  ASSERT_TRUE(ctl.tick(milliseconds(26)));
  EXPECT_EQ(ctl.unquarantines(), 1u);
  EXPECT_TRUE(ctl.quarantined().empty());
  EXPECT_EQ(cp_.deployed()->group_count(), 3u);
}

TEST_F(GroupControllerTest, TickRunsAntiEntropyEvenWhenIdle) {
  fleet_.hypervisor(2).clear_plan();
  EXPECT_FALSE(fleet_.epochs_consistent());
  GroupTarget target(cp_);
  qvisor::RuntimeController ctl(target);
  EXPECT_FALSE(ctl.tick(milliseconds(5)));  // no redeploy needed...
  EXPECT_TRUE(fleet_.epochs_consistent());  // ...but the switch healed
  EXPECT_EQ(fleet_.reconciles(), 1u);
}

}  // namespace
}  // namespace qv::control
