// ShardSupervisor: the dataplane's failure detector. Each worker bumps
// a per-shard heartbeat epoch once per burst (a plain relaxed store to
// a cache line only that worker writes — no read-modify-write, nothing
// beyond the existing ring pair contended on the hot path); a watchdog
// thread polls the heartbeats and declares a shard stalled when its
// epoch has not moved within the configured deadline, setting the
// shard's kill flag. The worker observes the kill flag only inside its
// own stall (the one place it is not making progress), aborts the
// wedged burst, and hot-restarts from its last checkpoint — see
// dataplane.cpp "supervised worker".
//
// Robustness notes:
//   * a spurious detect (worker merely descheduled by the OS, or idle)
//     is harmless and uncounted: a healthy worker never reads the kill
//     flag, so the one detect tally, SupervisionStats::watchdog_detects
//     with its detect_ns, is kept by the worker when it acts on a kill
//     inside a real stall. The watchdog hands the heartbeat age over
//     in ShardHealth::detect_age_ns, and re-arms only after it sees the
//     heartbeat move again, so one stall episode records one detect;
//   * the watchdog owns its bookkeeping (last seen epoch, poll clock)
//     privately; workers and watchdog share only the ShardHealth
//     atomics.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "dataplane/spsc_ring.hpp"  // kCacheLine
#include "obs/log2_histogram.hpp"
#include "util/time.hpp"

namespace qv::dataplane {

struct SupervisionConfig {
  /// Master switch. Off = the PR 6 dataplane, bit for bit: no
  /// heartbeats, no watchdog thread, no checkpoints, immediate ring
  /// commits. Faults in DataplaneConfig::fault_plan require it on.
  bool enabled = false;

  /// A shard whose heartbeat has not moved for this long is declared
  /// stalled (kill flag set, detect recorded).
  TimeNs heartbeat_deadline_ns = 20'000'000;  // 20 ms
  /// Watchdog poll cadence; detection latency is deadline + O(poll).
  TimeNs watchdog_poll_ns = 1'000'000;  // 1 ms

  /// Checkpoint every N non-empty bursts. The worker defers its ring
  /// commits to the checkpoint, so recovery loss is bounded by the ring
  /// capacity (what can sit uncommitted) + one burst — independent of
  /// this interval. Larger = cheaper, same loss bound.
  std::uint64_t checkpoint_interval_bursts = 16;

  /// Recovery policy. false (default): restore the checkpoint and
  /// REPLAY the uncommitted ring region — deterministic faults excepted
  /// (quarantine), the books end byte-identical to a fault-free run.
  /// true: restore the checkpoint and DRAIN the ring, itemizing every
  /// packet past the checkpoint into lost_in_flight. Ring desync always
  /// drains (the uncommitted region is not trustworthy to replay).
  bool drain_on_restore = false;

  /// Consecutive deterministic faults on the SAME packet identity
  /// (port, seq) before it is quarantined instead of retried.
  int quarantine_after = 2;

  /// Safety cap: a wedged worker self-releases after this long even if
  /// the watchdog never fires (e.g. absurdly long deadline in a test).
  TimeNs stall_safety_ns = 5'000'000'000;  // 5 s
};

/// Shared per-shard health cell. The worker writes heartbeat/done; the
/// watchdog writes detect_age_ns, then kill. Padded so no two shards
/// (and no worker + watchdog pair) false-share.
struct alignas(kCacheLine) ShardHealth {
  std::atomic<std::uint64_t> heartbeat{0};  ///< worker: one bump per burst
  std::atomic<bool> done{false};            ///< worker exited its loop
  std::atomic<bool> kill{false};            ///< watchdog: stall verdict
  /// Watchdog: heartbeat age at the verdict `kill` carries (stored
  /// before `kill`).
  std::atomic<std::uint64_t> detect_age_ns{0};
};

/// Per-shard supervision tallies, merged into ShardResult after join.
struct SupervisionStats {
  std::uint64_t checkpoints = 0;
  std::uint64_t forced_checkpoints = 0;  ///< ring-pressure checkpoints
  std::uint64_t restores = 0;
  std::uint64_t stalls = 0;        ///< injected stalls survived
  std::uint64_t crashes = 0;       ///< injected crashes survived
  std::uint64_t poison_faults = 0; ///< faults attributed to poison packets
  std::uint64_t quarantined = 0;   ///< packets isolated
  std::uint64_t desyncs = 0;       ///< ring desyncs detected
  std::uint64_t watchdog_detects = 0;  ///< kill verdicts a stall acted on
  obs::Log2Histogram checkpoint_ns;  ///< cost per checkpoint
  obs::Log2Histogram recovery_ns;    ///< restore-to-running latency
  obs::Log2Histogram detect_ns;      ///< heartbeat-age at each detect

  void merge(const SupervisionStats& o) {
    checkpoints += o.checkpoints;
    forced_checkpoints += o.forced_checkpoints;
    restores += o.restores;
    stalls += o.stalls;
    crashes += o.crashes;
    poison_faults += o.poison_faults;
    quarantined += o.quarantined;
    desyncs += o.desyncs;
    watchdog_detects += o.watchdog_detects;
    checkpoint_ns.merge(o.checkpoint_ns);
    recovery_ns.merge(o.recovery_ns);
    detect_ns.merge(o.detect_ns);
  }
};

class ShardSupervisor {
 public:
  ShardSupervisor(std::size_t shards, const SupervisionConfig& config);
  ~ShardSupervisor();

  ShardSupervisor(const ShardSupervisor&) = delete;
  ShardSupervisor& operator=(const ShardSupervisor&) = delete;

  /// Spawn the watchdog thread. Call before the workers start.
  void start();
  /// Stop and join the watchdog. Idempotent; called by the destructor.
  void stop();

  ShardHealth& health(std::size_t shard) { return cells_[shard]; }

  /// Worker hot-path heartbeat: one relaxed store per burst (single
  /// writer, so load+store is a plain increment — no RMW, no fence).
  void beat(std::size_t shard) {
    ShardHealth& h = cells_[shard];
    h.heartbeat.store(h.heartbeat.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
  }

 private:
  void watchdog_loop();

  const SupervisionConfig config_;
  std::vector<ShardHealth> cells_;
  std::atomic<bool> stop_{false};
  std::thread watchdog_;
};

}  // namespace qv::dataplane
