#include "trafficgen/reliable_source.hpp"

#include <algorithm>
#include <cassert>

namespace qv::trafficgen {

ReliableHostSource::ReliableHostSource(netsim::Simulator& sim,
                                       netsim::Host& host, TenantId tenant,
                                       sched::RankerPtr ranker,
                                       BitsPerSec pace_rate, TimeNs rto,
                                       std::int32_t mtu_bytes)
    : sim_(sim), host_(host), tenant_(tenant), ranker_(std::move(ranker)),
      pace_rate_(pace_rate), rto_(rto), mtu_(mtu_bytes) {
  assert(ranker_ != nullptr);
  assert(pace_rate_ > 0);
  assert(rto_ > 0);
  assert(mtu_ > 0);
}

void ReliableHostSource::start_flow(FlowId flow, NodeId dst,
                                    std::int64_t size_bytes) {
  assert(size_bytes > 0);
  FlowState fs;
  fs.dst = dst;
  fs.size = size_bytes;
  fs.num_packets =
      static_cast<std::uint32_t>((size_bytes + mtu_ - 1) / mtu_);
  fs.last_packet_bytes = static_cast<std::int32_t>(
      size_bytes - static_cast<std::int64_t>(fs.num_packets - 1) * mtu_);
  fs.acked.assign(fs.num_packets, false);
  fs.in_flight.assign(fs.num_packets, false);
  fs.sent_at.assign(fs.num_packets, -1);
  fs.started_at = sim_.now();
  flows_.emplace(flow, std::move(fs));
  if (!pumping_) pump();
}

void ReliableHostSource::pump() {
  // Pick the flow with the least un-ACKed bytes (SRPT) that has a
  // sendable packet (not acked, not currently in flight).
  FlowId best_flow = 0;
  std::uint32_t best_seq = 0;
  std::int64_t best_remaining = -1;
  for (auto& [id, fs] : flows_) {
    const std::int64_t remaining = fs.unacked_bytes(mtu_);
    if (best_remaining >= 0 && remaining >= best_remaining) continue;
    // Advance the sendable cursor past acked / in-flight packets.
    while (fs.scan_from < fs.num_packets &&
           (fs.acked[fs.scan_from] || fs.in_flight[fs.scan_from])) {
      ++fs.scan_from;
    }
    if (fs.scan_from < fs.num_packets) {
      best_flow = id;
      best_seq = fs.scan_from;
      best_remaining = remaining;
    }
  }
  if (best_remaining < 0) {
    // Nothing sendable (everything in flight or acked): go idle; the
    // retransmission timer will wake us if losses occurred.
    pumping_ = false;
    return;
  }
  pumping_ = true;

  FlowState& fs = flows_.at(best_flow);
  Packet p;
  p.flow = best_flow;
  p.seq = best_seq;
  p.src = host_.id();
  p.dst = fs.dst;
  p.size_bytes =
      best_seq + 1 == fs.num_packets ? fs.last_packet_bytes : mtu_;
  p.tenant = tenant_;
  p.created_at = fs.started_at;
  p.flow_size_bytes = fs.size;
  p.remaining_bytes = fs.unacked_bytes(mtu_);
  p.last_of_flow = best_seq + 1 == fs.num_packets;
  p.rank = ranker_->rank(p, sim_.now());
  p.original_rank = p.rank;

  if (fs.sent_at[best_seq] >= 0) ++retransmissions_;
  fs.in_flight[best_seq] = true;
  fs.sent_at[best_seq] = sim_.now();
  sends_.push_back({best_flow, best_seq, sim_.now()});
  host_.send(p);
  ++packets_sent_;
  arm_timer();

  sim_.after(serialization_delay(p.size_bytes, pace_rate_),
             [this] { pump(); });
}

void ReliableHostSource::on_ack(const Packet& ack, TimeNs now) {
  auto it = flows_.find(ack.flow);
  if (it == flows_.end()) return;  // stale ACK for a completed flow
  FlowState& fs = it->second;
  if (ack.seq >= fs.num_packets || fs.acked[ack.seq]) return;
  fs.acked[ack.seq] = true;
  fs.in_flight[ack.seq] = false;
  ++fs.acked_count;
  if (fs.acked_count == fs.num_packets) {
    const FlowId done = ack.flow;
    flows_.erase(it);
    if (on_flow_done_) on_flow_done_(done, now);
    return;
  }
}

void ReliableHostSource::arm_timer() {
  const TimeNs next = sim_.now() + rto_;
  if (timer_ != 0 && timer_at_ <= next) return;  // an earlier timer runs
  if (timer_ != 0) sim_.cancel(timer_);
  timer_at_ = next;
  timer_ = sim_.at(next, [this] {
    timer_ = 0;
    on_timeout();
  });
}

void ReliableHostSource::on_timeout() {
  // Expire in-flight packets older than the RTO so they become
  // sendable again; re-arm if anything is still pending. Only the
  // expired prefix of the send log is visited, and an entry is stale —
  // skipped — when its packet was acked or re-sent since, or its flow
  // is gone: only a packet's latest send can expire it.
  const TimeNs now = sim_.now();
  while (!sends_.empty() && now - sends_.front().at >= rto_) {
    const Sent sent = sends_.front();
    sends_.pop_front();
    const auto it = flows_.find(sent.flow);
    if (it == flows_.end()) continue;
    FlowState& fs = it->second;
    if (sent.seq >= fs.num_packets || fs.acked[sent.seq] ||
        fs.sent_at[sent.seq] != sent.at) {
      continue;
    }
    fs.in_flight[sent.seq] = false;  // eligible for retransmission
    fs.scan_from = std::min(fs.scan_from, sent.seq);
  }
  // on_ack erases a flow at its last ACK, so every flow left is pending.
  const bool pending = !flows_.empty();
  if (!pumping_) pump();
  if (pending && timer_ == 0) arm_timer();
}

// --- ReliableSink -----------------------------------------------------------

ReliableSink::ReliableSink(netsim::Simulator& sim, netsim::Host& host,
                           ReliableHostSource* source, DataCallback on_data,
                           std::int32_t ack_bytes)
    : sim_(sim), host_(host), source_(source), on_data_(std::move(on_data)),
      ack_bytes_(ack_bytes) {}

void ReliableSink::attach() {
  host_.set_sink([this](const Packet& p) { handle(p); });
}

void ReliableSink::handle(const Packet& p) {
  if (p.kind == PacketKind::kAck) {
    if (source_ != nullptr) source_->on_ack(p, sim_.now());
    return;
  }
  if (on_data_) on_data_(p, sim_.now());
  if (ack_filter_ && !ack_filter_(p)) return;  // unreliable stream

  // Answer with a high-priority ACK (pFabric gives ACKs the best rank).
  Packet ack;
  ack.kind = PacketKind::kAck;
  ack.flow = p.flow;
  ack.seq = p.seq;
  ack.src = host_.id();
  ack.dst = p.src;
  ack.size_bytes = ack_bytes_;
  ack.tenant = p.tenant;
  ack.rank = 0;
  ack.original_rank = 0;
  ack.created_at = sim_.now();
  host_.send(ack);
  ++acks_sent_;
}

}  // namespace qv::trafficgen
