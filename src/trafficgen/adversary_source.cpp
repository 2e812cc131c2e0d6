#include "trafficgen/adversary_source.hpp"

#include <cassert>

namespace qv::trafficgen {

const char* adversary_mode_name(AdversaryMode mode) {
  switch (mode) {
    case AdversaryMode::kFlooder: return "flooder";
    case AdversaryMode::kRankGamer: return "gamer";
    case AdversaryMode::kTenantChurn: return "churn";
    case AdversaryMode::kBurstHerd: return "herd";
  }
  return "?";
}

std::vector<AdversaryMode> adversary_all_modes() {
  return {AdversaryMode::kFlooder, AdversaryMode::kRankGamer,
          AdversaryMode::kTenantChurn, AdversaryMode::kBurstHerd};
}

AdversarySource::AdversarySource(netsim::Simulator& sim, netsim::Host& host,
                                 AdversaryConfig config)
    : sim_(sim), host_(host), config_(config), rng_(config.seed),
      interval_(serialization_delay(config.packet_bytes, config.rate)) {
  assert(config_.rate > 0);
  assert(config_.stop > config_.start);
  assert(config_.rank_lo <= config_.rank_hi);
  if (config_.mode == AdversaryMode::kBurstHerd) {
    if (config_.burst_interval <= 0) {
      // Derive the period so the long-run rate still equals the attack
      // rate: one burst of `burst_packets` every burst_packets * gap.
      config_.burst_interval = interval_ * config_.burst_packets;
    }
    sim_.at(config_.start, [this] { emit_burst(); });
  } else {
    sim_.at(config_.start, [this] { emit(); });
  }
}

Packet AdversarySource::make_packet() {
  Packet p;
  p.flow = config_.flow;
  p.seq = next_seq_++;
  p.src = host_.id();
  p.dst = config_.dst;
  p.size_bytes = config_.packet_bytes;
  p.tenant = config_.tenant;
  p.created_at = sim_.now();

  Rank label = static_cast<Rank>(
      config_.rank_lo +
      rng_.next_below(config_.rank_hi - config_.rank_lo + 1));
  switch (config_.mode) {
    case AdversaryMode::kRankGamer:
      // Every packet claims maximum urgency, regardless of reality.
      label = config_.gamed_rank;
      break;
    case AdversaryMode::kTenantChurn:
      // A fresh tenant id per packet, cycling through churn_span ids —
      // each one a never-contracted stranger probing for per-tenant
      // state.
      p.tenant = config_.tenant + churn_cursor_;
      churn_cursor_ = (churn_cursor_ + 1) % config_.churn_span;
      break;
    default:
      break;
  }
  p.rank = label;
  p.original_rank = label;
  return p;
}

void AdversarySource::emit() {
  if (sim_.now() >= config_.stop) return;
  const Packet p = make_packet();
  host_.send(p);
  ++packets_sent_;
  bytes_sent_ += static_cast<std::uint64_t>(p.size_bytes);
  sim_.after(interval_, [this] { emit(); });
}

void AdversarySource::emit_burst() {
  if (sim_.now() >= config_.stop) return;
  for (std::uint32_t i = 0; i < config_.burst_packets; ++i) {
    const Packet p = make_packet();
    host_.send(p);
    ++packets_sent_;
    bytes_sent_ += static_cast<std::uint64_t>(p.size_bytes);
  }
  sim_.after(config_.burst_interval, [this] { emit_burst(); });
}

}  // namespace qv::trafficgen
