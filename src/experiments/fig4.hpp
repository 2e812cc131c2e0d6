// The paper's evaluation (§4, Fig. 4): two tenants on a leaf-spine
// fabric — a data-mining workload scheduled with pFabric and a set of
// CBR flows scheduled with EDF — under six scheduling configurations.
// This runner reproduces one (scheme, load) point; the fig4 binary
// sweeps the grid (run_fig4_sweep) and bench/fig_tables.py prints the
// two series (small flows / big flows) from its fig4_summary.json.
#pragma once

#include <cstdint>
#include <string>

#include "netsim/event.hpp"
#include "netsim/topology.hpp"
#include "util/time.hpp"
#include "util/units.hpp"

namespace qv::obs {
struct Observability;
}

namespace qv::experiments {

/// The six lines of the paper's Fig. 4.
enum class Fig4Scheme {
  kFifoBoth,             ///< "FIFO: pFabric and EDF"
  kPifoNaive,            ///< "PIFO: pFabric and EDF" (no QVISOR)
  kPifoIdeal,            ///< "PIFO: pFabric" (pFabric alone, ideal)
  kQvisorEdfOverPfabric, ///< "QVISOR: EDF >> pFabric"
  kQvisorShare,          ///< "QVISOR: pFabric + EDF"
  kQvisorPfabricOverEdf, ///< "QVISOR: pFabric >> EDF"
};

const char* fig4_scheme_name(Fig4Scheme scheme);

struct Fig4Config {
  netsim::LeafSpineConfig topo;  ///< paper: 9x4, 16 hosts/leaf, 1/4 Gb/s

  Fig4Scheme scheme = Fig4Scheme::kQvisorPfabricOverEdf;
  double load = 0.5;       ///< pFabric tenant's access-link load
  std::uint64_t seed = 1;

  /// Measurement protocol: flows STARTING in
  /// [warmup, warmup + measure_window) count; the run continues for
  /// `drain` more so measured flows can finish.
  TimeNs warmup = milliseconds(30);
  TimeNs measure_window = milliseconds(80);
  TimeNs drain = milliseconds(200);

  /// EDF tenant: `cbr_flows` CBR streams at `cbr_rate` between random
  /// server pairs, each packet with `cbr_deadline_slack` to live.
  std::size_t cbr_flows = 100;
  BitsPerSec cbr_rate = mbps(500);
  TimeNs cbr_deadline_slack = milliseconds(5);

  /// Truncate the data-mining tail so big flows fit the horizon when
  /// running the scaled-down topology (0 = the full distribution).
  double max_flow_bytes = 0;

  /// Per-port buffer (0 = unbounded; see DESIGN.md on the
  /// no-retransmission substitution).
  std::int64_t buffer_bytes = 0;

  /// Reliable pFabric transport: small priority-drop buffers + ACKs +
  /// timeout retransmission (the paper's actual Netbench setup) instead
  /// of generous buffers + censoring-aware accounting. When enabled and
  /// `buffer_bytes` is 0, ports default to `reliable_buffer_bytes`.
  bool reliable = false;
  std::int64_t reliable_buffer_bytes = 60'000;
  TimeNs rto = microseconds(600);

  /// QVISOR quantization levels per sharing band. Must be fine enough
  /// to keep each tenant's intra-tenant order useful (§3.2); the
  /// quantization ablation bench sweeps this.
  std::uint32_t qvisor_levels = 4096;

  /// Run on the pre-overhaul simulation core (heap event ordering +
  /// per-packet link events) — the differential-testing reference and
  /// benchmark baseline. Artifacts are byte-identical either way.
  bool per_event_simcore = false;

  /// Optional instrumentation (not owned): the run attaches the tracer
  /// + samplers and, at teardown, exports every metric and freeze()s
  /// the registry so the caller can write the artifacts afterwards.
  obs::Observability* obs = nullptr;

  /// When non-empty, write the measured pFabric flows here as CSV.
  std::string flow_csv;

  TimeNs total_duration() const { return warmup + measure_window + drain; }
};

/// A scaled-down configuration (16 hosts, truncated tail) that keeps
/// the full sweep under ~2 minutes; `fig4 --paper-topo` runs
/// fig4_paper_config() instead.
Fig4Config fig4_scaled_config();

/// The paper-scale configuration (144 hosts, full tail).
Fig4Config fig4_paper_config();

struct Fig4Result {
  // pFabric-tenant FCTs, milliseconds, over measured completed flows.
  double mean_small_ms = 0;  ///< flows in (0, 100 KB) — Fig. 4a
  double p99_small_ms = 0;
  std::size_t small_flows = 0;
  std::size_t small_incomplete = 0;
  /// Censoring-aware mean: incomplete flows counted at their age when
  /// the simulation ended (lower bound). This is the headline number —
  /// without it a configuration that STARVES flows looks good because
  /// only its lucky flows complete.
  double mean_small_lb_ms = 0;

  double mean_large_ms = 0;  ///< flows in [1 MB, inf) — Fig. 4b
  std::size_t large_flows = 0;
  std::size_t large_incomplete = 0;
  double mean_large_lb_ms = 0;

  double mean_all_ms = 0;
  std::size_t all_flows = 0;

  double edf_deadline_met = 1.0;  ///< EDF tenant's deadline-met fraction
  std::uint64_t drops = 0;        ///< total packet drops (should be ~0)
  std::uint64_t events = 0;       ///< simulator events processed

  /// Timing-wheel diagnostics for the run (NOT exported into
  /// metrics.json: the split differs between drain modes while the
  /// artifacts must stay byte-identical).
  netsim::EventQueue::WheelStats wheel;
  /// Link sub-steps replayed inline by the coalesced drain (same
  /// caveat: diagnostics only, 0 on the per-event reference).
  std::uint64_t events_replayed = 0;
};

Fig4Result run_fig4(const Fig4Config& config);

}  // namespace qv::experiments
