// Dataplane chaos harness (robustness): the sharded dataplane under
// injected shard faults — worker stalls, worker crashes, poisoned
// descriptors, ring desyncs, and a seeded random mix — swept over
// fault kinds x seeds, with every run checked against the fault-domain
// contracts the supervision machinery promises:
//
//   1. balanced books — generated == processed + quarantined +
//      lost_in_flight holds on every port after every recovery;
//   2. fault-free determinism — the supervised pipeline with no faults
//      produces books byte-identical to the unsupervised dataplane
//      (supervision must be a pure observer on the healthy path);
//   3. replay determinism — stall and crash recoveries replay the
//      uncommitted ring region, so the faulted run's books are
//      byte-identical to the fault-free run's;
//   4. bounded loss — a drain recovery (ring desync) itemizes at most
//      ring_capacity + one burst packets per recovery into
//      lost_in_flight, never silently;
//   5. bounded recovery — every checkpoint restore (+ drain) completes
//      within the configured recovery budget, and a stalled worker is
//      detected by the watchdog (not by the run hanging).
//
// The sweep is a cell run of the one grid runner (experiments/grid.hpp).
// The runner writes <stem>_metrics.json (the faulted run's dataplane +
// supervisor registry) and <stem>_trace.json: on a shard<i> lane, one
// recover:<cause> span per checkpoint restore (args at_burst, lost,
// drained) and one quarantine instant per isolated packet (args port,
// seq, tenant, faults), in wall-clock time from the first fault.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dataplane/dataplane.hpp"
#include "experiments/grid.hpp"
#include "util/time.hpp"

namespace qv::experiments {

enum class DataplaneFaultKind { kStall, kCrash, kPoison, kDesync, kRandom };

const char* dataplane_fault_kind_slug(DataplaneFaultKind k);
std::vector<DataplaneFaultKind> dataplane_all_fault_kinds();

/// The small supervised dataplane shape every chaos cell runs: 2 shards
/// x 2 ports, a few thousand packets per port, a fast watchdog so a
/// stall cell finishes in milliseconds rather than the production
/// deadline.
dataplane::DataplaneConfig dataplane_chaos_base();

struct DataplaneChaosConfig {
  std::uint64_t seed = 1;
  DataplaneFaultKind kind = DataplaneFaultKind::kRandom;
  dataplane::DataplaneConfig base = dataplane_chaos_base();

  /// Per-recovery restore (+ drain) wall budget. Generous: restores
  /// copy a few KB of per-port state, but sanitizer presets tax every
  /// access and the drain handshake waits out a producer burst.
  std::int64_t max_recovery_ns = 2'000'000'000;

  /// Optional instrumentation (not owned): the faulted run's registry
  /// is exported into it and its recovery episodes are traced.
  obs::Observability* obs = nullptr;
};

struct DataplaneChaosResult {
  // Faulted-run tallies (the fault-free reference runs only feed the
  // determinism checks).
  std::uint64_t generated = 0;
  std::uint64_t processed = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t lost_in_flight = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t restores = 0;
  std::uint64_t stalls = 0;
  std::uint64_t crashes = 0;
  std::uint64_t poison_faults = 0;
  std::uint64_t desyncs = 0;
  std::uint64_t watchdog_detects = 0;
  std::uint64_t recovery_count = 0;      ///< RecoveryRecord entries
  std::int64_t max_restore_ns = 0;       ///< slowest single recovery
  std::uint64_t max_lost_per_recovery = 0;
  std::uint64_t loss_bound = 0;          ///< ring_capacity + batch

  // Contract verdicts (see file header; `ok` is their conjunction).
  bool balanced = false;             ///< every faulted-run port book
  bool faultfree_identical = false;  ///< supervised==unsupervised, no faults
  bool replay_identical = false;     ///< replay kinds: faulted==fault-free
  bool loss_bounded = false;         ///< per-recovery drain bound held
  bool recovery_bounded = false;     ///< every restore within budget
  bool activity_seen = false;        ///< the injected kind actually fired
  bool ok = false;

  std::vector<dataplane::RecoveryRecord> recoveries;
  std::vector<dataplane::QuarantineRecord> quarantine;
};

/// Run one cell: unsupervised baseline, supervised fault-free, then the
/// faulted run, and evaluate the contracts.
DataplaneChaosResult run_dataplane_chaos(const DataplaneChaosConfig& config);

// --- sweep: kinds x seeds -------------------------------------------------

struct DataplaneChaosSweepConfig {
  DataplaneChaosConfig base;  ///< kind/seed/obs overridden per cell
  std::vector<DataplaneFaultKind> kinds = dataplane_all_fault_kinds();
  std::vector<std::uint64_t> seeds = {1};
  std::string out_dir = ".";
  std::size_t jobs = 0;  ///< 0 = hardware_concurrency, 1 = serial
};

/// Fan the grid across cores, write per-cell artifacts plus
/// dpchaos_summary.json, and return the cells in grid order (kinds
/// outer, seeds inner). Every verdict is the same for every --jobs
/// value, and so is the whole summary row of a stall, crash or poison
/// cell: `watchdog_detects` counts only the kill verdicts a stalled
/// worker acted on, never a worker descheduled or idle past the
/// heartbeat deadline (see dataplane/supervisor.hpp). The artifacts
/// carry run-dependent fields: trace.json's `ts` and `dur`, and in
/// metrics.json `pps`, `wall_seconds`, `checkpoint_ns`, `recovery_ns`
/// and `detect_ns` (wall clock) and `empty_polls`, `full_spins` and
/// `ring_occupancy` (thread timing). A drain recovery (desync,
/// random) loses whatever was in flight when it hit, so those cells'
/// books and summary counts (`processed`, `lost_in_flight`,
/// `checkpoints`, `max_lost_per_recovery`) vary from run to run as
/// well.
std::vector<SweepCell> run_dataplane_chaos_sweep(
    const DataplaneChaosSweepConfig& sweep);

}  // namespace qv::experiments
