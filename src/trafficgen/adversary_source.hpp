// Adversarial traffic sources: tenants that actively try to break the
// isolation contract. Each mode targets one of the overload defenses:
//
//   kFlooder    — honest labels, dishonest volume: blasts far above the
//                 contracted rate (token-bucket policing target).
//   kRankGamer  — contracted volume shape, gamed labels: every packet
//                 claims the most urgent rank (AIFO quantile-admission
//                 target — a constant-rank distribution gains nothing
//                 over an honest one).
//   kTenantChurn — never reuses a tenant id: each packet carries a
//                 fresh id above the dense range (bounded-state target:
//                 spill-counter LRU, monitor/estimator caps, and the
//                 guard's aggregate "unknown" bucket).
//   kBurstHerd  — synchronized bursts at a fixed period, modelling a
//                 botnet-style herd hammering one destination (burst /
//                 share-cap target).
//
// Used by the `overload` experiment; rank noise is drawn from a seeded
// Rng so runs replay bit-identically.
#pragma once

#include <cstdint>
#include <vector>

#include "netsim/node.hpp"
#include "netsim/simulator.hpp"
#include "util/random.hpp"
#include "util/units.hpp"

namespace qv::trafficgen {

enum class AdversaryMode {
  kFlooder,
  kRankGamer,
  kTenantChurn,
  kBurstHerd,
};

const char* adversary_mode_name(AdversaryMode mode);
/// Every mode, in declaration order (the overload grid's `--mode all`).
std::vector<AdversaryMode> adversary_all_modes();

struct AdversaryConfig {
  AdversaryMode mode = AdversaryMode::kFlooder;
  TenantId tenant = kInvalidTenant;  ///< base id (churn counts up from it)
  NodeId dst = 0;
  FlowId flow = 0;
  BitsPerSec rate = 0;  ///< attack rate (well above contract)
  std::int32_t packet_bytes = 1000;
  TimeNs start = 0;
  TimeNs stop = 0;
  Rank rank_lo = 0;    ///< honest-label range (flooder / churn / herd)
  Rank rank_hi = 99;
  Rank gamed_rank = 0;  ///< the rank a kRankGamer stamps on everything
  std::uint32_t churn_span = 1u << 20;  ///< distinct ids a churner cycles
  std::uint32_t burst_packets = 32;     ///< herd burst size
  TimeNs burst_interval = 0;  ///< herd period (0 = derived from rate)
  std::uint64_t seed = 1;
};

class AdversarySource {
 public:
  AdversarySource(netsim::Simulator& sim, netsim::Host& host,
                  AdversaryConfig config);

  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  const AdversaryConfig& config() const { return config_; }

 private:
  void emit();        ///< steady per-packet modes
  void emit_burst();  ///< kBurstHerd
  Packet make_packet();

  netsim::Simulator& sim_;
  netsim::Host& host_;
  AdversaryConfig config_;
  Rng rng_;
  TimeNs interval_;  ///< per-packet pacing at the attack rate
  std::uint32_t next_seq_ = 0;
  std::uint32_t churn_cursor_ = 0;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
};

}  // namespace qv::trafficgen
