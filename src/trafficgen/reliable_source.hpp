// Reliable pFabric-style transport: line-rate transmission with
// per-packet selective ACKs and timeout-driven retransmission — the
// end-host behaviour the paper's Netbench evaluation runs (pFabric,
// Alizadeh et al. SIGCOMM'13, "minimal" transport: no congestion
// window, just persistence + priority dropping in the fabric).
//
// Mechanics:
//  * The source always transmits at line rate, flow with the least
//    un-ACKed bytes first (SRPT), unsent-then-lost packets in seq order.
//  * The RECEIVER side (ReliableSink) emits one small ACK per received
//    data packet, carrying the data packet's flow and seq; ACKs ride
//    at rank 0 (highest priority, as in pFabric).
//  * Un-ACKed packets are retransmitted after `rto` elapses since their
//    last transmission. A flow completes when every seq is ACKed.
//
// Combined with small, priority-drop buffers this reproduces pFabric's
// loss-and-retransmit dynamics that pure queueing (host_source.hpp)
// does not model.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "netsim/node.hpp"
#include "netsim/simulator.hpp"
#include "sched/rank/ranker.hpp"
#include "util/units.hpp"

namespace qv::trafficgen {

class ReliableHostSource {
 public:
  using FlowDone = std::function<void(FlowId, TimeNs)>;

  ReliableHostSource(netsim::Simulator& sim, netsim::Host& host,
                     TenantId tenant, sched::RankerPtr ranker,
                     BitsPerSec pace_rate, TimeNs rto = microseconds(500),
                     std::int32_t mtu_bytes = 1500);

  void start_flow(FlowId flow, NodeId dst, std::int64_t size_bytes);

  /// Feed ACK packets addressed to this host (from its Host sink).
  void on_ack(const Packet& ack, TimeNs now);

  /// All seqs ACKed (sender-side completion).
  void set_on_flow_done(FlowDone cb) { on_flow_done_ = std::move(cb); }

  std::size_t active_flows() const { return flows_.size(); }
  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t retransmissions() const { return retransmissions_; }

 private:
  struct FlowState {
    NodeId dst = kInvalidNode;
    std::int64_t size = 0;
    std::int32_t last_packet_bytes = 0;
    std::uint32_t num_packets = 0;
    std::vector<bool> acked;
    std::vector<bool> in_flight;  ///< sent, not timed out, not acked
    std::vector<TimeNs> sent_at;  ///< last transmission time per seq
    std::uint32_t acked_count = 0;
    /// First seq that might be sendable; monotone except on timeout,
    /// which rewinds it to the earliest expired packet. Keeps pump()
    /// amortized O(1) per transmission instead of O(num_packets).
    std::uint32_t scan_from = 0;
    TimeNs started_at = 0;

    std::int64_t unacked_bytes(std::int32_t mtu) const {
      const auto remaining_pkts = num_packets - acked_count;
      if (remaining_pkts == 0) return 0;
      // Exact enough for SRPT ordering: full MTUs plus the tail.
      return static_cast<std::int64_t>(remaining_pkts - 1) * mtu +
             (acked[num_packets - 1] ? mtu : last_packet_bytes);
    }
  };

  /// One transmission. The send log keeps them in send (= time)
  /// order, so a timeout visits only the expired prefix instead of
  /// every packet of every flow.
  struct Sent {
    FlowId flow = 0;
    std::uint32_t seq = 0;
    TimeNs at = 0;
  };

  void pump();
  void arm_timer();
  void on_timeout();

  netsim::Simulator& sim_;
  netsim::Host& host_;
  TenantId tenant_;
  sched::RankerPtr ranker_;
  BitsPerSec pace_rate_;
  TimeNs rto_;
  std::int32_t mtu_;
  std::unordered_map<FlowId, FlowState> flows_;
  std::deque<Sent> sends_;
  bool pumping_ = false;
  netsim::EventId timer_ = 0;
  TimeNs timer_at_ = 0;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t retransmissions_ = 0;
  FlowDone on_flow_done_;
};

/// Receiver half: plugs into a Host's sink, forwards data packets to a
/// downstream consumer (e.g. the FCT tracker) and answers each with an
/// ACK; routes incoming ACKs back to the local ReliableHostSource.
class ReliableSink {
 public:
  using DataCallback = std::function<void(const Packet&, TimeNs)>;

  /// `source` may be null for pure receivers. `ack_bytes` is the ACK's
  /// wire size.
  ReliableSink(netsim::Simulator& sim, netsim::Host& host,
               ReliableHostSource* source, DataCallback on_data,
               std::int32_t ack_bytes = 64);

  /// Install as `host`'s sink (replaces any previous sink).
  void attach();

  /// Only data packets satisfying `filter` are ACKed (others are
  /// delivered to the data callback but treated as unreliable streams).
  void set_ack_filter(std::function<bool(const Packet&)> filter) {
    ack_filter_ = std::move(filter);
  }

  std::uint64_t acks_sent() const { return acks_sent_; }

 private:
  void handle(const Packet& p);

  std::function<bool(const Packet&)> ack_filter_;

  netsim::Simulator& sim_;
  netsim::Host& host_;
  ReliableHostSource* source_;
  DataCallback on_data_;
  std::int32_t ack_bytes_;
  std::uint64_t acks_sent_ = 0;
};

}  // namespace qv::trafficgen
