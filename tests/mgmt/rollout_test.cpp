// Canary-then-wave rollout engine (ISSUE 9): staged installs through
// the control plane, SLO-gated canaries, abort-to-last-known-good with
// fleet-wide fingerprint equality, and the install-retry budget.
#include "mgmt/rollout.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "qvisor/backend.hpp"

namespace qv::mgmt {
namespace {

constexpr char kV1[] =
    "group gold   = 0..15 bounds 0..255\n"
    "group silver = 16..63\n"
    "group bronze = 64..127\n"
    "policy gold >> silver + bronze\n";

constexpr char kV2Good[] =
    "group gold   = 0..15 bounds 0..255\n"
    "group silver = 16..63\n"
    "group bronze = 64..191\n"
    "policy gold >> silver + bronze\n";

constexpr char kV2Inverted[] =
    "group gold   = 0..15 bounds 0..255\n"
    "group silver = 16..63\n"
    "group bronze = 64..127\n"
    "policy silver + bronze >> gold\n";

JsonValue policy_doc(const std::string& text) {
  JsonValue doc = JsonValue::make_object();
  doc.set("kind", JsonValue("policy"));
  doc.set("policy", JsonValue(text));
  return doc;
}

class RolloutEngineTest : public ::testing::Test {
 protected:
  RolloutEngineTest()
      : dir_((std::filesystem::temp_directory_path() /
              ("qv_rollout_test_" +
               std::string(::testing::UnitTest::GetInstance()
                               ->current_test_info()
                               ->name())))
                 .string()),
        fleet_({}, qvisor::OperatorPolicy{},
               std::make_shared<qvisor::PifoBackend>()),
        cp_(fleet_),
        store_((std::filesystem::remove_all(dir_), dir_)) {
    for (int i = 0; i < 10; ++i) {
      fleet_.add_switch("sw" + std::to_string(i));
    }
  }

  ~RolloutEngineTest() override { std::filesystem::remove_all(dir_); }

  /// Accept v1, deploy it fleet-wide, mark it LKG — the baseline every
  /// rollout starts from.
  std::uint64_t bootstrap() {
    const PutResult p = store_.put(DocKind::kPolicy, policy_doc(kV1));
    EXPECT_TRUE(p.acked) << p.error;
    const auto d = cp_.deploy_text(kV1);
    EXPECT_TRUE(d.ok) << d.error;
    std::string err;
    EXPECT_TRUE(store_.mark_good(p.id, &err)) << err;
    return p.id;
  }

  std::uint64_t put_policy(const char* text) {
    const PutResult p = store_.put(DocKind::kPolicy, policy_doc(text));
    EXPECT_TRUE(p.acked) << p.error;
    return p.id;
  }

  RolloutConfig small_waves() {
    RolloutConfig config;
    config.canary = 2;
    config.wave_size = 4;
    config.wave_retry_budget = 2;
    return config;
  }

  std::string dir_;
  qvisor::Fleet fleet_;
  control::ControlPlane cp_;
  ConfigStore store_;
};

TEST_F(RolloutEngineTest, CleanRolloutCommitsAndMovesLkg) {
  const std::uint64_t v1 = bootstrap();
  const std::uint64_t v2 = put_policy(kV2Good);

  RolloutEngine engine(cp_, store_, small_waves());
  const RolloutReport rep = engine.rollout(v2);
  EXPECT_TRUE(rep.ok) << rep.abort_reason;
  EXPECT_EQ(rep.outcome, RolloutOutcome::kCommitted);
  EXPECT_TRUE(rep.incremental);  // bronze grew; tier layout unchanged
  ASSERT_EQ(rep.waves.size(), 3u);  // 2 + 4 + 4
  EXPECT_TRUE(rep.waves[0].probed);
  EXPECT_FALSE(rep.waves[1].probed);  // canary-only probing by default
  EXPECT_EQ(rep.probes.size(), 2u);
  EXPECT_EQ(rep.lkg_before, v1);
  EXPECT_EQ(rep.lkg_after, v2);
  EXPECT_EQ(store_.lkg_id(DocKind::kPolicy), v2);

  // Fleet-wide single version: every switch's plan digest equals the
  // candidate's.
  EXPECT_TRUE(rep.converged);
  EXPECT_TRUE(rep.on_lkg);
  EXPECT_TRUE(fleet_.epochs_consistent());
  EXPECT_FALSE(fleet_.has_staged());
  EXPECT_EQ(rep.epoch_mismatch_packets, 0u);
  ASSERT_NE(cp_.current_policy(), nullptr);
  EXPECT_EQ(plan_fingerprint(*cp_.deployed()), rep.expected_fingerprint);
}

// The engine's clock rule (rollout.hpp): commit attempts, probes and
// the final epoch flip each take simulated time, so the trace orders a
// rollout's steps.
TEST_F(RolloutEngineTest, TraceInstantsAdvanceThroughTheRollout) {
  bootstrap();
  obs::Tracer tracer;
  tracer.enable_all();
  const RolloutConfig config = small_waves();
  RolloutEngine engine(cp_, store_, config);
  engine.set_tracer(&tracer);
  ASSERT_TRUE(engine.rollout(put_policy(kV2Good)).ok);

  std::vector<std::string> names;
  std::vector<TimeNs> ts;
  for (const obs::TraceEvent& e : tracer.events()) {
    if (e.cat != obs::TraceCategory::kMgmt) continue;
    names.emplace_back(e.name);
    ts.push_back(e.ts);
  }
  EXPECT_EQ(names, (std::vector<std::string>{
                       "rollout:stage", "rollout:wave", "rollout:wave",
                       "rollout:wave", "rollout:finalize"}));
  for (std::size_t i = 1; i < ts.size(); ++i) {
    EXPECT_LT(ts[i - 1], ts[i]) << names[i];
  }
  // Wave 1 follows wave 0's canary probes, which drain for a while.
  ASSERT_EQ(ts.size(), 5u);
  EXPECT_GT(ts[2] - ts[1], config.retry_interval);
}

TEST_F(RolloutEngineTest, NoopRolloutOnlyMovesTheLkgPointer) {
  bootstrap();
  const std::uint64_t v2 = put_policy(kV1);  // byte-identical policy
  RolloutEngine engine(cp_, store_, small_waves());
  const RolloutReport rep = engine.rollout(v2);
  EXPECT_TRUE(rep.ok);
  EXPECT_TRUE(rep.noop);
  EXPECT_EQ(rep.outcome, RolloutOutcome::kCommitted);
  EXPECT_TRUE(rep.waves.empty());
  EXPECT_EQ(store_.lkg_id(DocKind::kPolicy), v2);
}

TEST_F(RolloutEngineTest, CanarySloRegressionAbortsBeforeWaveTwo) {
  const std::uint64_t v1 = bootstrap();
  const std::uint64_t v2 = put_policy(kV2Inverted);
  const std::uint64_t lkg_fp = plan_fingerprint(*cp_.deployed());

  RolloutEngine engine(cp_, store_, small_waves());
  const RolloutReport rep = engine.rollout(v2);
  // Victims derive from the LKG's protected tier (gold), which the
  // candidate demoted — the canary probe must catch it.
  EXPECT_TRUE(rep.ok) << rep.abort_reason;  // ok = clean abort to LKG
  EXPECT_EQ(rep.outcome, RolloutOutcome::kAborted);
  ASSERT_EQ(rep.waves.size(), 1u);  // wave 2 never started
  EXPECT_LE(rep.switches_touched, 2u);
  EXPECT_FALSE(rep.waves[0].probe_pass);
  EXPECT_NE(rep.abort_reason.find("SLO regression"), std::string::npos);

  // Post-abort: fleet back on last-known-good, single version.
  EXPECT_TRUE(rep.converged);
  EXPECT_TRUE(rep.on_lkg);
  EXPECT_EQ(rep.expected_fingerprint, lkg_fp);
  EXPECT_EQ(store_.lkg_id(DocKind::kPolicy), v1);
  EXPECT_EQ(rep.lkg_after, v1);
  EXPECT_FALSE(fleet_.has_staged());
  EXPECT_EQ(plan_fingerprint(*cp_.deployed()), lkg_fp);

  // The fleet still serves: a later good rollout succeeds.
  const std::uint64_t v3 = put_policy(kV2Good);
  const RolloutReport again = engine.rollout(v3);
  EXPECT_TRUE(again.ok) << again.abort_reason;
  EXPECT_EQ(again.outcome, RolloutOutcome::kCommitted);
  EXPECT_EQ(store_.lkg_id(DocKind::kPolicy), v3);
}

TEST_F(RolloutEngineTest, ExhaustedRetryBudgetAbortsToLkg) {
  const std::uint64_t v1 = bootstrap();
  const std::uint64_t v2 = put_policy(kV2Good);
  const std::uint64_t lkg_fp = plan_fingerprint(*cp_.deployed());

  // Switch 5 (wave 2) rejects every install of any NEW epoch; rollback
  // pushes at the committed epoch still succeed.
  const std::uint64_t committed_epoch = fleet_.committed_epoch();
  std::uint64_t rejects = 0;
  fleet_.set_install_fault(
      [committed_epoch, &rejects](std::size_t idx, std::uint64_t epoch) {
        if (idx == 5 && epoch != committed_epoch) {
          ++rejects;
          return true;
        }
        return false;
      });

  RolloutEngine engine(cp_, store_, small_waves());
  const RolloutReport rep = engine.rollout(v2);
  EXPECT_TRUE(rep.ok) << rep.abort_reason;  // clean abort
  EXPECT_EQ(rep.outcome, RolloutOutcome::kAborted);
  ASSERT_EQ(rep.waves.size(), 2u);
  EXPECT_EQ(rep.waves[1].attempts, 3u);  // budget 2 => 3 attempts
  EXPECT_EQ(rejects, 3u);
  EXPECT_NE(rep.abort_reason.find("install failed"), std::string::npos);

  EXPECT_TRUE(rep.converged);
  EXPECT_TRUE(rep.on_lkg);
  EXPECT_EQ(rep.expected_fingerprint, lkg_fp);
  EXPECT_EQ(store_.lkg_id(DocKind::kPolicy), v1);
  EXPECT_TRUE(fleet_.epochs_consistent());
}

TEST_F(RolloutEngineTest, TransientInstallFailureCommitsOnRetry) {
  bootstrap();
  const std::uint64_t v2 = put_policy(kV2Good);

  const std::uint64_t committed_epoch = fleet_.committed_epoch();
  std::uint64_t rejects = 0;
  fleet_.set_install_fault(
      [committed_epoch, &rejects](std::size_t idx, std::uint64_t epoch) {
        // First two installs to switch 7 fail, the third succeeds —
        // inside the retry budget.
        if (idx == 7 && epoch != committed_epoch && rejects < 2) {
          ++rejects;
          return true;
        }
        return false;
      });

  RolloutEngine engine(cp_, store_, small_waves());
  const RolloutReport rep = engine.rollout(v2);
  EXPECT_TRUE(rep.ok) << rep.abort_reason;
  EXPECT_EQ(rep.outcome, RolloutOutcome::kCommitted);
  EXPECT_EQ(rejects, 2u);
  ASSERT_EQ(rep.waves.size(), 3u);
  EXPECT_EQ(rep.waves[2].attempts, 3u);  // the wave holding switch 7
  EXPECT_EQ(store_.lkg_id(DocKind::kPolicy), v2);
  EXPECT_TRUE(fleet_.epochs_consistent());
}

TEST_F(RolloutEngineTest, ProbeEndpointOutageAborts) {
  const std::uint64_t v1 = bootstrap();
  const std::uint64_t v2 = put_policy(kV2Good);
  RolloutEngine engine(cp_, store_, small_waves());
  engine.set_probe_fault([](std::size_t idx) { return idx == 1; });
  const RolloutReport rep = engine.rollout(v2);
  EXPECT_TRUE(rep.ok) << rep.abort_reason;
  EXPECT_EQ(rep.outcome, RolloutOutcome::kAborted);
  EXPECT_NE(rep.abort_reason.find("unreachable"), std::string::npos);
  EXPECT_EQ(store_.lkg_id(DocKind::kPolicy), v1);
  EXPECT_TRUE(rep.on_lkg);
}

TEST_F(RolloutEngineTest, RejectsBadVersionsWithoutTouchingTheFleet) {
  const std::uint64_t v1 = bootstrap();
  const std::uint64_t epoch_before = fleet_.committed_epoch();
  RolloutEngine engine(cp_, store_, small_waves());

  EXPECT_EQ(engine.rollout(999).outcome, RolloutOutcome::kRejected);

  const PutResult contracts = store_.put(DocKind::kContracts, [] {
    JsonValue c = JsonValue::make_object();
    c.set("tenant", JsonValue(std::int64_t{1}));
    JsonValue doc = JsonValue::make_object();
    doc.set("kind", JsonValue("contracts"));
    doc.set("contracts", JsonValue(JsonValue::Array{c}));
    return doc;
  }());
  ASSERT_TRUE(contracts.acked) << contracts.error;
  const RolloutReport not_policy = engine.rollout(contracts.id);
  EXPECT_EQ(not_policy.outcome, RolloutOutcome::kRejected);
  EXPECT_NE(not_policy.abort_reason.find("not a policy"), std::string::npos);

  EXPECT_EQ(fleet_.committed_epoch(), epoch_before);
  EXPECT_EQ(store_.lkg_id(DocKind::kPolicy), v1);
}

TEST_F(RolloutEngineTest, ProbeJudgesHealthyAndInvertedPlans) {
  bootstrap();
  RolloutConfig config = small_waves();
  RolloutEngine engine(cp_, store_, config);
  const ProbeResult healthy = engine.probe_switch(0);
  EXPECT_TRUE(healthy.pass) << healthy.failure;
  EXPECT_GE(healthy.victim_share, config.slo.min_victim_share);
  EXPECT_TRUE(healthy.balanced);
  EXPECT_EQ(healthy.epoch_mismatches, 0u);

  // Deploy the inverted policy fleet-wide (no staged gate) and probe
  // again with the victim set PINNED to gold — deriving it from the
  // now-deployed policy would let the inversion redefine its victims.
  const auto d = cp_.deploy_text(kV2Inverted);
  ASSERT_TRUE(d.ok) << d.error;
  config.victim_groups = {"gold"};
  RolloutEngine pinned(cp_, store_, config);
  const ProbeResult sick = pinned.probe_switch(0);
  EXPECT_FALSE(sick.pass);
  EXPECT_LT(sick.victim_share, config.slo.min_victim_share);
}

}  // namespace
}  // namespace qv::mgmt
