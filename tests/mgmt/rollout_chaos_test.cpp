// The acceptance grid for the management-plane rollout contract, in
// ctest form: every fault kind x >= 3 seeds must end with the fleet
// single-version on a store-tracked plan, the canary gate intact, the
// store never losing an acked version, and zero packets scheduled
// under a half-installed plan. The same harness backs the
// rollout_chaos CLI; here it runs with a smaller fleet so the whole
// grid stays in unit-test time.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "experiments/rollout_chaos.hpp"

namespace qv::experiments {
namespace {

TEST(RolloutChaosHarness, ContractHoldsForEveryFaultKindAcrossSeeds) {
  const std::string root =
      (std::filesystem::temp_directory_path() / "qv_rollout_chaos_test")
          .string();
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);

  for (const RolloutFaultKind kind : rollout_all_fault_kinds()) {
    for (const std::uint64_t seed : {1ull, 7ull, 1337ull}) {
      RolloutChaosConfig config;
      config.kind = kind;
      config.seed = seed;
      config.switches = 24;
      config.canary = 2;
      config.wave_size = 8;
      config.store_dir = root + "/" +
                         std::string(rollout_fault_kind_slug(kind)) + "_s" +
                         std::to_string(seed) + "_store";
      const RolloutChaosResult r = run_rollout_chaos(config);

      const std::string cell = std::string(rollout_fault_kind_slug(kind)) +
                               " seed " + std::to_string(seed);
      EXPECT_TRUE(r.outcome_as_expected)
          << cell << ": " << r.report.abort_reason;
      EXPECT_TRUE(r.single_version)
          << cell << ": fleet digest " << r.report.fleet_fingerprint
          << " expected plan fp " << r.report.expected_fingerprint;
      EXPECT_TRUE(r.canary_gated)
          << cell << ": " << r.report.waves.size() << " waves, "
          << r.report.switches_touched << " switches touched";
      EXPECT_TRUE(r.lkg_pointer_correct)
          << cell << ": lkg " << r.final_lkg << " baseline "
          << r.baseline_version << " candidate " << r.candidate_version;
      EXPECT_TRUE(r.store_recovery_identical) << cell;
      EXPECT_TRUE(r.zero_epoch_mismatches)
          << cell << ": " << r.report.epoch_mismatch_packets;
      EXPECT_TRUE(r.activity_seen) << cell;
      EXPECT_TRUE(r.ok) << cell;
    }
  }
  std::filesystem::remove_all(root);
}

TEST(RolloutChaosHarness, SweepWritesArtifactsAndSummary) {
  const std::string root =
      (std::filesystem::temp_directory_path() / "qv_rollout_chaos_sweep")
          .string();
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);

  RolloutChaosSweepConfig sweep;
  sweep.base.switches = 12;
  sweep.base.canary = 2;
  sweep.base.wave_size = 4;
  sweep.kinds = {RolloutFaultKind::kClean, RolloutFaultKind::kCanarySlo};
  sweep.seeds = {3};
  sweep.out_dir = root;
  sweep.jobs = 1;
  const auto cells = run_rollout_chaos_sweep(sweep);
  ASSERT_EQ(cells.size(), 2u);
  for (const auto& cell : cells) {
    EXPECT_TRUE(cell.ok) << cell.summary;
    EXPECT_FALSE(cell.summary.empty());
    EXPECT_TRUE(std::filesystem::exists(cell.stem + "_metrics.json"));
    EXPECT_TRUE(std::filesystem::exists(cell.stem + "_trace.json"));
    EXPECT_TRUE(std::filesystem::exists(cell.stem + "_store"));
  }
  EXPECT_TRUE(
      std::filesystem::exists(root + "/rollout_chaos_summary.json"));
  // Grid order: kinds outer, seeds inner.
  EXPECT_NE(cells[0].stem.find("clean"), std::string::npos);
  EXPECT_NE(cells[1].stem.find("canary-slo"), std::string::npos);
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace qv::experiments
