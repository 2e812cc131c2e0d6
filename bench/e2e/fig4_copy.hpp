// The traced Fig. 4 cell: a copy of experiments::run_fig4 assembled from
// the public layer APIs (Simulator, Network + build_leaf_spine,
// Hypervisor, the traffic sources, FctTracker), with a span around each
// call into a layer and a transparent timing decorator on every port
// scheduler and on the PIFO behind each QVISOR port.
//
// The copy must describe the same program as run_fig4: qvbench --trace
// compares fig4_fingerprint() of both on every traced cell and fails the
// run on any difference.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "experiments/fig4.hpp"
#include "probe.hpp"
#include "sched/scheduler.hpp"

namespace qvb {

/// Calls into one scheduler level: the link queues, or the hardware
/// PIFOs QVISOR ports delegate to.
struct SchedLevel {
  CallStats enq;
  CallStats deq;
  std::uint64_t dequeue_batch_calls = 0;
  std::uint64_t dequeue_batch_pkts = 0;
  std::uint64_t dropped = 0;  ///< summed over members after the run
  /// The wrapped schedulers (valid only while the cell's network lives).
  std::vector<const qv::sched::Scheduler*> members;

  double total_ns() const { return enq.total_ns() + deq.total_ns(); }
  double outside_ns() const { return enq.outside_ns() + deq.outside_ns(); }
};

/// Raw timings of one traced cell (ns unless stated).
struct CellTrace {
  bool qvisor = false;
  std::int64_t cell_ns = 0;
  std::int64_t build_ns = 0;     ///< build_leaf_spine
  std::int64_t compile_ns = 0;   ///< Hypervisor::compile
  std::int64_t arrivals_ns = 0;  ///< generate_poisson_arrivals
  std::int64_t run_ns = 0;       ///< Simulator::run_until
  std::int64_t collect_ns = 0;   ///< FCT statistics + flow CSV
  SchedLevel port;
  SchedLevel backend;
  RegionStats flow_start;  ///< flow-arrival callbacks (trafficgen)
  CallStats sink;          ///< host-sink callbacks (telemetry)
  std::uint64_t pre_processed = 0;  ///< QVISOR pre-processor packets
  std::uint64_t pre_dropped = 0;    ///< ... refused (unknown / admission)
  std::uint64_t events = 0;
  std::uint64_t replayed = 0;
  qv::netsim::EventQueue::WheelStats wheel;
};

/// run_fig4(config), rebuilt with timing around every layer call.
/// `spans` may be null; `parent` is the enclosing span id.
qv::experiments::Fig4Result run_fig4_traced(
    const qv::experiments::Fig4Config& config, CellTrace& trace,
    SpanLog* spans, int parent);

/// Canonical text of every Fig4Result field (doubles as %.17g): the
/// cell digest the golden file and the copy-fidelity check compare.
std::string fig4_fingerprint(const qv::experiments::Fig4Result& r);

}  // namespace qvb
