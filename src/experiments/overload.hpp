// Overload / adversarial-tenant harness (robustness): a leaf-spine
// fabric where two well-behaved tenants (gold, silver) share a
// bottleneck with an attacker running one of the AdversarySource modes
// (flooder, rank gamer, tenant-id churner, burst herd).
//
// The harness runs the SAME seed twice — attack-free baseline, then
// with the attacker — and checks the isolation contract the admission
// guard promises:
//   1. packet conservation (offered = delivered + dropped + buffered +
//      unrouted), including the guard's own books: offered packets =
//      admitted + rate/share/quantile drops at every port, and the
//      pre-processor's per-tenant tallies + evicted tallies + degraded
//      passthroughs = processed.
//   2. isolation envelope — each victim keeps >= `victim_throughput_frac`
//      of its attack-free throughput and its p99 packet latency stays
//      <= `victim_p99_factor` x the attack-free p99.
//   3. the attacker is throttled to its contract (admitted rate <=
//      `attacker_rate_factor` x contracted rate + burst) and — when it
//      is identifiable (not id-churning) — quarantined through the
//      Monitor -> adaptation-loop hysteresis path (FleetTarget).
//   4. bounded state — spill-counter maps and monitor tenant tables
//      stay within their caps even under id churn.
#pragma once

#include <cstdint>
#include <string>

#include "trafficgen/adversary_source.hpp"
#include "util/time.hpp"
#include "util/units.hpp"

namespace qv::obs {
struct Observability;
}

namespace qv::experiments {

struct OverloadConfig {
  std::uint64_t seed = 1;
  trafficgen::AdversaryMode mode = trafficgen::AdversaryMode::kFlooder;
  bool guard = true;  ///< false = unprotected data plane (demonstration)

  // Topology: 2 leaves x 2 spines, 2 hosts per leaf. Victims h0 (gold)
  // and h1 (silver) send cross-leaf to h3; the attacker h2 sends
  // same-leaf to h3, so the leaf1 -> h3 access downlink is the
  // contended port.
  BitsPerSec access_rate = gbps(1);
  BitsPerSec fabric_rate = gbps(4);
  TimeNs link_delay = microseconds(1);

  // Victim workload (identical in both runs).
  BitsPerSec victim_rate = mbps(300);
  std::int32_t packet_bytes = 1000;
  TimeNs traffic_stop = milliseconds(50);
  TimeNs end = milliseconds(60);  ///< drain horizon (then run to empty)

  // Attack: well above the attacker's contracted rate.
  BitsPerSec attack_rate = mbps(800);
  BitsPerSec attacker_contract_rate = mbps(100);
  /// Contracted burst (token-bucket depth). Deliberately tighter than
  /// the library default: an admitted burst rides at the attacker's
  /// claimed rank, so the burst depth bounds how far a rank-gamer can
  /// push ahead of its band-mates before the quarantine lands.
  std::int64_t attacker_burst_bytes = 15'000;
  TimeNs attack_start = milliseconds(5);
  TimeNs attack_stop = milliseconds(45);

  // Admission-guard shape (see qvisor::AdmissionSettings).
  std::int64_t port_buffer_bytes = 262'144;
  double share_headroom = 2.0;
  std::uint32_t rank_window = 64;
  double aifo_k = 0.1;

  // Controller cadence.
  TimeNs tick_interval = milliseconds(1);
  TimeNs activity_window = milliseconds(5);
  TimeNs quarantine_clean_window = milliseconds(20);

  // Isolation envelope.
  double victim_throughput_frac = 0.9;  ///< of attack-free bytes
  double victim_p99_factor = 1.5;       ///< of attack-free p99 latency
  /// Absolute slack on the p99 envelope: at microsecond-scale baselines
  /// a pure multiplicative bound would sit below one queued packet.
  TimeNs victim_p99_slack = microseconds(100);
  double attacker_rate_factor = 1.3;    ///< of contract bytes + burst

  /// Optional instrumentation (not owned).
  /// Run on the pre-overhaul simulation core (heap event ordering +
  /// per-packet link events) — the differential-testing reference.
  bool per_event_simcore = false;

  obs::Observability* obs = nullptr;
};

struct OverloadTenantStats {
  std::uint64_t offered_pkts = 0;
  std::uint64_t offered_bytes = 0;
  std::uint64_t delivered_pkts = 0;
  std::uint64_t delivered_bytes = 0;
  TimeNs p99_latency = 0;  ///< per-packet src->sink latency, 99th pct
};

/// One simulation run (baseline runs have no attacker).
struct OverloadRun {
  OverloadTenantStats gold;
  OverloadTenantStats silver;
  OverloadTenantStats attacker;

  // Network-level conservation.
  std::uint64_t offered_pkts = 0;
  std::uint64_t delivered_pkts = 0;
  std::uint64_t queue_dropped_pkts = 0;
  std::uint64_t buffered_pkts = 0;
  std::uint64_t unrouted_pkts = 0;
  bool conserved = false;

  // Admission-guard books, aggregated over every port.
  std::uint64_t guard_offered = 0;
  std::uint64_t guard_admitted = 0;
  std::uint64_t guard_rate_dropped = 0;
  std::uint64_t guard_share_dropped = 0;
  std::uint64_t guard_quantile_dropped = 0;
  std::uint64_t attacker_admitted_bytes = 0;
  bool guard_balanced = false;  ///< offered == admitted + dropped

  // Pre-processor books, aggregated over every port.
  std::uint64_t pre_processed = 0;
  std::uint64_t pre_admission_dropped = 0;
  std::uint64_t pre_rank_clamped = 0;
  std::uint64_t spill_evictions = 0;
  std::uint64_t spill_evicted_packets = 0;
  std::size_t max_spill_tracked = 0;  ///< across ports (cap check)
  bool accounting_balanced = false;   ///< per-tenant + evicted == processed

  // Monitor / controller activity.
  std::size_t max_tracked_tenants = 0;  ///< across switches (cap check)
  std::uint64_t untracked_observations = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t unquarantines = 0;
  std::uint64_t adaptations = 0;
};

struct OverloadResult {
  OverloadRun baseline;  ///< attack-free, same seed
  OverloadRun attack;

  bool victims_throughput_ok = false;
  bool victims_latency_ok = false;
  bool attacker_throttled = false;
  bool attacker_quarantined = false;  ///< only asserted when identifiable
  bool state_bounded = false;
  bool ok = false;  ///< all of the above plus both runs' conservation
};

/// Run baseline + attack and evaluate the isolation contract. Only the
/// attack run is instrumented through `config.obs`.
OverloadResult run_overload(const OverloadConfig& config);

}  // namespace qv::experiments
