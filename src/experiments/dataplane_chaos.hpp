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
// Each cell writes <stem>_metrics.json (the dataplane + supervisor
// registries) and <stem>_trace.json (a Perfetto/Chrome trace-event
// timeline of the recovery episodes: one span per checkpoint restore,
// one instant per quarantine verdict). The sweep is a cell run of the
// one grid runner (experiments/grid.hpp), like every other experiment.
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
/// faulted run, and evaluate the contracts. When `metrics_path` is
/// non-empty the faulted run's registry (books, stage histograms,
/// supervisor counters) is saved there before the run state is torn
/// down.
DataplaneChaosResult run_dataplane_chaos(const DataplaneChaosConfig& config,
                                         const std::string& metrics_path = "");

/// Serialize the cell's recovery episodes as a Chrome/Perfetto
/// trace-event JSON ({"traceEvents": [...]}): one complete ("X") span
/// per checkpoint restore on the faulting shard's track, one instant
/// per quarantine verdict. Timestamps are rebased so the first fault
/// lands at t=0.
void write_dataplane_chaos_trace(const std::string& path,
                                 const DataplaneChaosResult& result);

// --- sweep: kinds x seeds -------------------------------------------------

struct DataplaneChaosSweepConfig {
  DataplaneChaosConfig base;  ///< kind/seed overridden per cell
  std::vector<DataplaneFaultKind> kinds = dataplane_all_fault_kinds();
  std::vector<std::uint64_t> seeds = {1};
  std::string out_dir = ".";
  std::size_t jobs = 0;  ///< 0 = hardware_concurrency, 1 = serial
};

/// Fan the grid across cores, write per-cell artifacts plus
/// dpchaos_summary.json, and return the cells in grid order (kinds
/// outer, seeds inner). Every verdict is the same for every --jobs
/// value, and so is the whole summary row of a stall, crash or poison
/// cell. The artifacts carry run-dependent fields: trace.json's
/// timestamps and durations, and in metrics.json `pps`,
/// `wall_seconds`, `checkpoint_ns`, `recovery_ns` and `detect_ns`
/// (wall clock) and `empty_polls`, `full_spins` and `ring_occupancy`
/// (thread timing). A drain recovery (desync, random) loses whatever
/// was in flight when it hit, so those cells' books and summary counts
/// (`processed`, `lost_in_flight`, `checkpoints`,
/// `max_lost_per_recovery`) vary from run to run as well.
std::vector<SweepCell> run_dataplane_chaos_sweep(
    const DataplaneChaosSweepConfig& sweep);

}  // namespace qv::experiments
