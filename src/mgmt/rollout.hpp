// Canary-then-wave rollout engine (ISSUE 9 tentpole, pillar 2).
//
// Drives a policy version from the config store across the fleet
// through the staged two-phase epoch machinery:
//
//     stage -> canary wave -> probe -> wave 2 -> probe -> ... ->
//     finalize -> mark last-known-good
//
// Every wave commits through ControlPlane::commit_wave (the PR 3
// two-phase install, one shared staged epoch) with a bounded retry
// budget for unreachable switches; every gated wave is followed by
// health probes on the cohort — a miniature deterministic workload
// pushed through each switch's QvisorPort and judged by per-port SLO
// predicates (victim throughput share, victim p99 delay under a
// virtual line-rate drain clock, balanced packet books, zero epoch
// mismatches). Victims are derived from the LAST-KNOWN-GOOD policy's
// top tier, not the candidate's: a candidate that demotes the
// operator's protected tier must fail the probe, not redefine it.
//
// On probe regression or an exhausted install-retry budget the engine
// ABORTS: the staged epoch is dropped, reachable switches roll back
// immediately, and reconcile() passes heal the rest — the report then
// asserts fleet-wide plan-fingerprint equality with last-known-good
// and zero epoch mismatches. The abort path is the contract the
// rollout chaos harness exists to break.
//
// No wall-clock anywhere: `now` is simulated time advanced by the
// caller, probes run on a virtual drain clock, and the probe workload
// is seeded — the same rollout against the same fleet replays
// identically.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "control/control_plane.hpp"
#include "mgmt/config_store.hpp"
#include "obs/trace.hpp"
#include "util/units.hpp"

namespace qv::mgmt {

struct ProbeConfig {
  std::uint64_t seed = 1;              ///< probe workload RNG seed
  std::size_t packets_per_tenant = 64;
  std::int32_t packet_bytes = 1000;
  BitsPerSec line_rate = 10'000'000'000;  ///< virtual drain clock rate
};

/// Per-port SLO predicates a probed switch must satisfy.
struct SloPolicy {
  /// Victim (protected-tier) share of the first half of the drain;
  /// with strict priority the protected tier drains first, so a healthy
  /// plan keeps this near 1.0.
  double min_victim_share = 0.9;
  /// Bound on the virtual-time p99 delay of victim packets.
  TimeNs p99_delay_bound = 2'000'000;  // 2 ms at the default workload
  /// enqueued == dequeued + dropped and an empty port after the drain.
  bool require_balanced_books = true;
};

struct RolloutConfig {
  std::size_t canary = 4;      ///< wave 0 size
  std::size_t wave_size = 32;  ///< subsequent waves
  /// Re-attempts of a failed wave commit before the rollout aborts.
  std::size_t wave_retry_budget = 2;
  TimeNs retry_interval = 1'000'000;  ///< simulated ns between attempts
  /// reconcile() passes the abort path may take to converge; exceeding
  /// it marks the rollout NOT converged (the contract violation).
  std::size_t heal_budget = 8;
  TimeNs heal_interval = 1'000'000;
  /// Probe every wave, not just the canary (slower, stricter).
  bool probe_every_wave = false;
  /// Victim group names; empty = derive from the LKG policy's top tier.
  std::vector<std::string> victim_groups;
  ProbeConfig probe;
  SloPolicy slo;
};

struct ProbeResult {
  std::size_t switch_index = 0;
  bool pass = false;
  std::string failure;  ///< which predicate failed, empty on pass
  double victim_share = 0.0;
  TimeNs victim_p99 = 0;
  bool balanced = false;
  std::uint64_t epoch_mismatches = 0;
};

struct WaveRecord {
  std::size_t wave = 0;  ///< 0 = canary
  std::vector<std::size_t> cohort;
  std::size_t attempts = 0;
  bool committed = false;
  bool probed = false;
  bool probe_pass = false;
  std::string error;
};

enum class RolloutOutcome : std::uint8_t {
  kCommitted = 0,  ///< finalized + marked last-known-good
  kAborted = 1,    ///< rolled back to last-known-good
  kRejected = 2,   ///< never staged (bad version / compile / precondition)
};

struct RolloutReport {
  /// kCommitted, or kAborted with converged && on_lkg: either way the
  /// fleet ends single-version on a store-tracked plan. Anything else
  /// is a contract violation.
  bool ok = false;
  RolloutOutcome outcome = RolloutOutcome::kRejected;
  std::string abort_reason;

  std::uint64_t version = 0;     ///< candidate store version id
  std::uint64_t lkg_before = 0;  ///< policy LKG id when the rollout began
  std::uint64_t lkg_after = 0;
  std::uint64_t staged_epoch = 0;
  bool incremental = false;  ///< waves used the delta patch path
  bool noop = false;         ///< candidate == deployed; nothing to do

  std::vector<WaveRecord> waves;
  std::vector<ProbeResult> probes;
  std::size_t switches_touched = 0;  ///< staged installs before abort/finish

  // Post-rollout invariants (filled for commits AND aborts).
  bool converged = false;  ///< epochs consistent within heal budget
  bool on_lkg = false;     ///< fleet fingerprint == expected plan's
  std::uint64_t fleet_fingerprint = 0;
  std::uint64_t expected_fingerprint = 0;
  std::uint64_t epoch_mismatch_packets = 0;  ///< across all probes
  std::size_t reconcile_passes = 0;          ///< abort-path heals used
};

/// Content digest of a compiled plan (per-group fingerprints + index
/// fingerprint + group count); equal digests = identical scheduling
/// behaviour.
std::uint64_t plan_fingerprint(const control::CompiledGroupPlan& plan);

/// Digest of what the fleet actually runs: per-switch plan digests in
/// switch order (0 for a switch with no group plan). Fleet-wide
/// equality with a single plan's digest == every switch runs that plan.
std::uint64_t fleet_plan_fingerprint(qvisor::Fleet& fleet);

class RolloutEngine {
 public:
  /// Injectable probe outage: switches for which this returns true fail
  /// their health probe outright (chaos hook).
  using ProbeFault = std::function<bool(std::size_t switch_index)>;

  RolloutEngine(control::ControlPlane& cp, ConfigStore& store,
                RolloutConfig config = {});

  /// Roll policy version `version_id` out to the whole fleet. `now` is
  /// simulated time; the engine advances it internally by
  /// retry/heal intervals. Preconditions: the version is an accepted
  /// policy document, and a policy LKG exists whose plan the fleet
  /// currently runs (the baseline the abort path returns to).
  RolloutReport rollout(std::uint64_t version_id, TimeNs now = 0);

  /// Probe one switch against the SLO policy (also used standalone by
  /// tests and the chaos harness).
  ProbeResult probe_switch(std::size_t switch_index);

  void set_probe_fault(ProbeFault fault) { probe_fault_ = std::move(fault); }
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  const RolloutConfig& config() const { return config_; }

 private:
  std::vector<std::vector<std::size_t>> plan_waves() const;
  std::vector<std::uint32_t> victim_tenants() const;
  std::vector<std::uint32_t> probe_tenants() const;
  void trace(const char* name, TimeNs ts, const char* arg_name,
             std::uint64_t arg) const;

  control::ControlPlane& cp_;
  ConfigStore& store_;
  RolloutConfig config_;
  ProbeFault probe_fault_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace qv::mgmt
