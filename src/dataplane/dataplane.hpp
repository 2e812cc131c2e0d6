// Sharded run-to-completion dataplane: the QVISOR hot path as a real
// packet pipeline instead of a per-call simulation.
//
// Execution model (Eiffel-style software scheduler, see PAPERS.md):
//
//   traffic-gen thread s ──SPSC ring──▶ worker thread s (shard s)
//                                        │ for each burst:
//                                        │   Preprocessor::process(span)
//                                        │   AdmissionGuard (inlined)
//                                        │   BucketedPifo::enqueue_batch
//                                        │   BucketedPifo::dequeue_batch
//                                        ▼ (service to steady depth)
//
// One worker thread owns one shard: a contiguous block of output ports,
// each with its own pre-processor (+ admission guard) and BucketedPifo.
// Nothing on the packet path is shared between threads except the SPSC
// ring between a shard's dedicated generator and its worker — no locks,
// no atomics per packet (the ring amortizes its two atomics across a
// batch). Run-to-completion: a worker takes a burst from its ring and
// carries it through rank rewrite, admission, enqueue, and service
// before touching the ring again.
//
// Determinism: port p's packet stream is derived from seed and p alone
// (own Rng stream + virtual arrival clock), and ports map to shards by
// fixed contiguous ownership. The ring applies backpressure (producers
// spin) instead of dropping. So every per-port conservation book and
// drop counter is byte-identical across repeated runs, shard counts,
// fused vs pipelined, and supervision off vs on — the equivalences the
// tests assert; per-shard books are sums over owned ports. A burst is
// one admission instant: the guard admits a port's whole run at its
// first packet's created_at. The rate-drop count therefore moves with
// `batch` (EXPERIMENTS.md has measurements), and with anything that
// moves burst boundaries: a ring seam that clips a burst, or, pipelined,
// a producer that finds only partial room. Every tested config uses a
// ring capacity that is a multiple of `batch`, where neither happens.
//
// Conservation: per port,
//   generated == processed + quarantined + lost_in_flight
//   processed == unknown_dropped + admission_dropped + enqueued
//   admission_dropped == rate + share + quantile drops (guard books)
//   enqueued == dequeued + residual      (residual == 0 after drain)
// checked by PortBook::balanced() at shutdown in every test and bench.
// quarantined and lost_in_flight are produced only by the supervision
// fault domain (both 0 on the fault-free path, where the first law
// degenerates to the original generated == processed).
//
// Fault domain (supervision.enabled): each worker heartbeats a
// ShardSupervisor watchdog, defers its ring commits to periodic
// checkpoints (so everything consumed since the last checkpoint is
// physically still in the ring), and on a fault — injected stall,
// crash, poisoned descriptor, or ring desync — restores the checkpoint
// and either REPLAYS the uncommitted ring region (deterministic: final
// books byte-identical to a fault-free run) or DRAINS the ring,
// itemizing the discarded packets into lost_in_flight (bounded by ring
// capacity + one burst). A packet that faults the worker
// `quarantine_after` times in a row is isolated into the quarantine log
// and skipped instead of crash-looping the shard. See DESIGN.md
// "Dataplane fault domain".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dataplane/fault.hpp"
#include "dataplane/supervisor.hpp"
#include "obs/log2_histogram.hpp"
#include "obs/metrics.hpp"
#include "util/time.hpp"

namespace qv::dataplane {

struct DataplaneConfig {
  std::size_t shards = 2;
  std::size_t ports_per_shard = 1;

  /// Each port emits exactly this many packets (must be > 0).
  std::uint64_t packets_per_port = 100'000;

  /// Burst size on every stage: generator emission, ring transfer, the
  /// pre-processor span, and the scheduler batch APIs. 1 sends
  /// one-packet bursts through the same pipeline. A burst is one
  /// admission instant, so the drop books depend on it (see above).
  std::size_t batch = 32;
  std::size_t ring_capacity = 1024;
  /// false (default): pipelined — each shard gets a dedicated
  /// generator thread feeding its worker thread through the SPSC ring.
  /// true: fused run-to-completion — one thread per shard interleaves
  /// generation and processing (generate a burst, drain the ring). Same
  /// per-port operation order, so the books are identical across both
  /// modes; fused isolates pipeline cost from cross-thread handoff on
  /// hosts with fewer cores than threads.
  bool fused = false;
  /// Steady-state queue depth a worker services each port down to; the
  /// terminal drain empties the queues entirely.
  std::size_t service_depth = 128;

  std::uint64_t seed = 1;

  // Workload shape: `tenants` tenants under the two-tier policy
  // "t0 >> t1 + t2 + ...", uniform tenant/rank draws per packet, one
  // packet per `packet_interval` of per-port virtual time.
  std::size_t tenants = 8;
  /// > 0: group-compiled mode (million-tenant control plane). The
  /// tenant id space is partitioned into this many contiguous groups,
  /// the same two-tier policy is written over the GROUPS ("g0 >> g1 +
  /// g2 + ..."), and each port runs the O(groups) transform table
  /// behind the O(1) tenant->group index instead of per-tenant entries.
  /// Books balance identically — the hot path changes, the conservation
  /// laws do not. Must divide nothing: any groups <= tenants works
  /// (ranges are near-equal contiguous blocks). 0 = per-tenant mode.
  std::size_t groups = 0;
  std::int32_t packet_bytes = 1500;
  TimeNs packet_interval = 1'000;

  /// Admission guard on the per-port pre-processors. The last tenant id
  /// is contracted at `policed_rate_bytes_per_sec` (well below its
  /// offered share), so the guard's rate path and the drop books are
  /// exercised deterministically; everyone else is unpoliced.
  bool guard = true;
  double policed_rate_bytes_per_sec = 60e6;
  double policed_burst_bytes = 30'000.0;

  /// Shard supervision (heartbeats + watchdog + checkpoint/restore).
  /// Disabled by default: the hot path is then bit-identical to the
  /// unsupervised dataplane. Must be enabled to arm `fault_plan`.
  SupervisionConfig supervision;
  /// Dataplane fault schedule (only the dataplane kinds are honored;
  /// see netsim::FaultEvent). Non-empty dataplane events with
  /// supervision disabled are a configuration error.
  netsim::FaultPlan fault_plan;
};

/// Per-port conservation book (see file header for the balance laws).
struct PortBook {
  std::uint64_t generated = 0;
  std::uint64_t processed = 0;
  std::uint64_t unknown_dropped = 0;
  std::uint64_t admission_dropped = 0;
  std::uint64_t rate_dropped = 0;
  std::uint64_t share_dropped = 0;
  std::uint64_t quantile_dropped = 0;
  std::uint64_t enqueued = 0;
  std::uint64_t dequeued = 0;
  std::uint64_t queue_dropped = 0;  ///< must stay 0 (guard owns the buffer)
  std::uint64_t residual = 0;       ///< buffered at shutdown (0 after drain)
  std::uint64_t delivered_bytes = 0;
  /// Poisoned packets isolated by the fault domain (0 without faults).
  std::uint64_t quarantined = 0;
  /// Packets discarded by a drain recovery, itemized instead of silently
  /// lost; bounded by ring capacity + one burst per recovery.
  std::uint64_t lost_in_flight = 0;

  bool balanced() const {
    return generated == processed + quarantined + lost_in_flight &&
           processed == unknown_dropped + admission_dropped + enqueued &&
           admission_dropped ==
               rate_dropped + share_dropped + quantile_dropped &&
           enqueued == dequeued + residual && queue_dropped == 0;
  }

  void add(const PortBook& o);
  bool operator==(const PortBook&) const = default;
};

/// One recovery episode, for the chaos harness's Perfetto timeline and
/// the recovery-bound assertions.
struct RecoveryRecord {
  enum class Cause : std::uint8_t { kStall, kCrash, kPoison, kDesync };
  Cause cause = Cause::kCrash;
  std::size_t shard = 0;
  std::uint64_t at_burst = 0;    ///< monotonic worker burst of the fault
  std::int64_t start_ns = 0;     ///< steady-clock ns at fault catch
  std::int64_t restore_ns = 0;   ///< restore (+ drain) duration
  std::uint64_t lost = 0;        ///< packets itemized lost (drain only)
  bool drained = false;
};

const char* recovery_cause_name(RecoveryRecord::Cause cause);

struct ShardResult {
  std::vector<PortBook> ports;  ///< shard-local order (global port =
                                ///< shard * ports_per_shard + index)
  std::uint64_t batches = 0;      ///< non-empty ring pops
  std::uint64_t empty_polls = 0;  ///< ring pops that found nothing
  std::uint64_t full_spins = 0;   ///< producer retries against a full ring
  obs::Log2Histogram batch_pkts;      ///< packets per non-empty pop
  obs::Log2Histogram ring_occupancy;  ///< ring depth after each pop

  // Fault domain (all empty/zero when supervision is disabled).
  SupervisionStats supervision;
  std::vector<QuarantineRecord> quarantine;  ///< isolated packets
  std::vector<RecoveryRecord> recoveries;    ///< one per restore

  PortBook book() const;  ///< sum over owned ports
};

struct DataplaneResult {
  std::vector<ShardResult> shards;
  double wall_seconds = 0.0;
  bool balanced = false;  ///< every port book balanced, residual 0

  PortBook book() const;  ///< sum over all shards
  SupervisionStats supervision() const;  ///< merged over all shards
  /// Packets fully carried through the pipeline per second of wall
  /// time (counting processed packets: drops are work too).
  double pps() const;

  /// Publish the books and stage histograms into `reg` under
  /// "dataplane.shard<i>.*" plus "dataplane.total.*" (call after run()
  /// returned; everything is plain merged state by then).
  void export_metrics(obs::Registry& reg) const;
};

/// Run the configured dataplane to completion and return the books.
/// Spawns shards * 2 threads (generator + worker per shard; shards * 1
/// when fused) on an exec::ThreadPool and blocks until every queue is
/// drained.
DataplaneResult run_dataplane(const DataplaneConfig& config);

}  // namespace qv::dataplane
