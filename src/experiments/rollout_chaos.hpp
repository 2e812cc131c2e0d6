// Rollout chaos harness (robustness): the management plane's
// canary-then-wave rollouts under injected faults — switch
// unreachability mid-wave, SLO regressions planted in the canary
// cohort, store crashes between journal append and commit-ack, and a
// seeded random mix — swept over fault kinds x seeds, each cell
// checked against the rollout contract:
//
//   1. single version — after every rollout, committed OR aborted, the
//      fleet's epochs are consistent and every switch's plan
//      fingerprint equals the expected plan's (candidate on commit,
//      last-known-good on abort): no mixed-version fleet, ever;
//   2. canary gating — a planted canary SLO regression aborts before
//      wave 1 touches any non-canary switch;
//   3. LKG pointer — the store's last-known-good policy pointer names
//      the plan the fleet actually runs;
//   4. durable acks — a store crash (torn journal frame) never loses
//      an acked version: the reopened store is byte-identical
//      (serialize()) to the pre-crash acked state;
//   5. clean books — zero packets were scheduled under a half-
//      installed plan during health probes (epoch mismatches == 0).
//
// The sweep is a cell run of the one grid runner (experiments/grid.hpp):
// cells fan across cores, the summary reduces in grid order, and the
// CLI exits non-zero when any cell violates the contract. Each cell
// records into the runner's bundle, which the runner writes as
// <stem>_metrics.json (fleet + control-plane + store registries) and
// <stem>_trace.json (mgmt/runtime trace of waves, probes, aborts and
// reconciles); the cell itself keeps its config store in <stem>_store/.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "experiments/grid.hpp"
#include "mgmt/rollout.hpp"

namespace qv::experiments {

enum class RolloutFaultKind {
  kClean,       ///< benign candidate, no faults: must commit
  kUnreachable, ///< a wave-cohort switch rejects installs K times
  kCanarySlo,   ///< candidate inverts the protected tier: canary aborts
  kStoreCrash,  ///< torn journal frame between append and commit-ack
  kRandom,      ///< seeded pick of the above behaviours
};

const char* rollout_fault_kind_slug(RolloutFaultKind k);
std::vector<RolloutFaultKind> rollout_all_fault_kinds();

struct RolloutChaosConfig {
  std::uint64_t seed = 1;
  RolloutFaultKind kind = RolloutFaultKind::kRandom;

  std::size_t switches = 200;  ///< "hundreds of simulated switches"
  std::size_t canary = 4;
  std::size_t wave_size = 32;
  std::size_t wave_retry_budget = 2;

  /// Config store directory for this cell (REQUIRED; one per cell).
  std::string store_dir;

  /// Optional instrumentation (not owned): the run attaches the tracer
  /// to the fleet and the rollout engine and, at teardown, exports the
  /// fleet/control/store metrics and freeze()s the registry.
  obs::Observability* obs = nullptr;
};

struct RolloutChaosResult {
  mgmt::RolloutReport report;

  std::uint64_t baseline_version = 0;   ///< v1 (bootstrap, marked LKG)
  std::uint64_t candidate_version = 0;  ///< v2 (the rollout target)
  std::uint64_t final_lkg = 0;          ///< policy LKG after the run
  std::uint64_t store_versions = 0;
  std::uint64_t install_rejections = 0; ///< injected switch-agent rejects
  bool expected_commit = false;  ///< what this (kind, seed) predicts

  // Contract verdicts (file header; `ok` is their conjunction).
  bool outcome_as_expected = false;
  bool single_version = false;
  bool canary_gated = false;      ///< vacuously true off the SLO kinds
  bool lkg_pointer_correct = false;
  bool store_recovery_identical = false;  ///< vacuously true off crash kinds
  bool zero_epoch_mismatches = false;
  bool activity_seen = false;
  bool ok = false;
};

/// Run one (kind, seed) cell.
RolloutChaosResult run_rollout_chaos(const RolloutChaosConfig& config);

// --- sweep: kinds x seeds -------------------------------------------------

struct RolloutChaosSweepConfig {
  RolloutChaosConfig base;  ///< kind/seed/store_dir/obs overridden per cell
  std::vector<RolloutFaultKind> kinds = rollout_all_fault_kinds();
  std::vector<std::uint64_t> seeds = {1};
  std::string out_dir = ".";
  std::size_t jobs = 0;  ///< 0 = hardware_concurrency, 1 = serial
};

/// Fan the grid across cores, write per-cell artifacts plus
/// rollout_chaos_summary.json, and return the cells in grid order
/// (kinds outer, seeds inner).
std::vector<SweepCell> run_rollout_chaos_sweep(
    const RolloutChaosSweepConfig& sweep);

}  // namespace qv::experiments
