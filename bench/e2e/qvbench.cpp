// qvbench: the end-to-end benchmark driver. One workload per process,
// one JSON object on stdout; bench/e2e/run.py builds this binary, runs
// it, checks its outputs against golden.json and turns the raw samples
// into the metrics BENCHMARK.json declares.
//
//   qvbench --workload fig4_lossless --seed 1 --seconds 15 --work-dir D
//
// Modes:
//   (default)     timed: one untimed warm-up operation, then operations
//                 through the public entry points (run_fig4_sweep,
//                 run_fig4, run_dataplane) until --seconds is spent;
//                 every operation's wall time and work is reported.
//   --setup-only  stop after the warm-up: run.py measures set-up time
//                 from spawn to the reported ready stamp.
//   --trace       the traced copies (fig4_copy, dataplane_copy), each
//                 paired with the untraced public call on the same input;
//                 reports the per-layer metrics and the fidelity checks.
//   --smoke       tiny inputs, every operation once.
//
// All workloads are closed loops: the next operation starts only when
// the previous one ended. At most two threads run at once.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dataplane/dataplane.hpp"
#include "dataplane_copy.hpp"
#include "exec/sweep.hpp"
#include "experiments/fig4.hpp"
#include "experiments/sweeps.hpp"
#include "fig4_copy.hpp"
#include "obs/json_writer.hpp"
#include "obs/obs.hpp"
#include "probe.hpp"
#include "util/flags.hpp"
#include "util/logging.hpp"

namespace qvb {
namespace {

namespace fs = std::filesystem;
using qv::dataplane::DataplaneConfig;
using qv::dataplane::PortBook;
using qv::experiments::Fig4Config;
using qv::experiments::Fig4Result;
using qv::experiments::Fig4Scheme;
using qv::experiments::Fig4SweepConfig;

constexpr std::size_t kJobs = 2;

enum class Workload { kSweep, kLossless, kReliable, kDataplane };

struct Options {
  Workload workload = Workload::kLossless;
  std::string name;
  std::uint64_t seed = 1;
  double seconds = 15;
  bool smoke = false;
  bool trace = false;
  bool setup_only = false;
  std::string work_dir;
  std::string spans_out;
};

// --- workload inputs --------------------------------------------------------

/// The scaled Fig. 4 cell; --smoke shrinks only the simulated horizon.
Fig4Config cell_base(const Options& o) {
  Fig4Config c = qv::experiments::fig4_scaled_config();
  if (o.smoke) {
    c.warmup = qv::milliseconds(5);
    c.measure_window = qv::milliseconds(10);
    c.drain = qv::milliseconds(15);
  }
  return c;
}

struct SimCell {
  std::string key;  ///< golden-file key; names the cell's full input
  Fig4Config config;
};

/// fig4_lossless: 3 QVISOR schemes at load 0.7, seeds S..S+15.
/// fig4_reliable: fifo and qvisor-pfabric at load 0.6 with the reliable
/// transport, seeds S..S+7. Seed-major, so a partial pass stays
/// balanced across schemes.
std::vector<SimCell> sim_cells(const Options& o) {
  const bool reliable = o.workload == Workload::kReliable;
  const std::vector<Fig4Scheme> schemes =
      reliable ? std::vector<Fig4Scheme>{Fig4Scheme::kFifoBoth,
                                         Fig4Scheme::kQvisorPfabricOverEdf}
               : std::vector<Fig4Scheme>{Fig4Scheme::kQvisorEdfOverPfabric,
                                         Fig4Scheme::kQvisorShare,
                                         Fig4Scheme::kQvisorPfabricOverEdf};
  const double load = reliable ? 0.6 : 0.7;
  const std::uint64_t seeds = o.smoke ? 1 : (reliable ? 8 : 16);
  std::vector<SimCell> cells;
  for (std::uint64_t k = 0; k < seeds; ++k) {
    for (const Fig4Scheme s : schemes) {
      SimCell cell;
      cell.config = cell_base(o);
      cell.config.scheme = s;
      cell.config.load = load;
      cell.config.seed = o.seed + k;
      cell.config.reliable = reliable;
      char key[160];
      std::snprintf(key, sizeof(key), "%s/%s/%s/l%g/s%llu",
                    o.smoke ? "smoke" : "full", o.name.c_str(),
                    qv::experiments::fig4_scheme_slug(s), load * 100,
                    static_cast<unsigned long long>(o.seed + k));
      cell.key = key;
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

/// fig4_sweep: what `fig4 --scheme all --loads 0.5,0.8 --jobs 2` runs,
/// with the CLI's observability defaults.
Fig4SweepConfig sweep_config(const Options& o, const std::string& out_dir) {
  Fig4SweepConfig s;
  s.base = cell_base(o);
  if (o.smoke) {
    s.schemes = {Fig4Scheme::kFifoBoth, Fig4Scheme::kQvisorPfabricOverEdf};
    s.loads = {0.5};
  } else {
    s.schemes = qv::experiments::fig4_all_schemes();
    s.loads = {0.5, 0.8};
  }
  s.seeds = {o.seed};
  s.out_dir = out_dir;
  s.jobs = kJobs;
  return s;
}

/// dataplane: fused, 2 shards x 1 port, 8 tenants, guard on.
DataplaneConfig dataplane_config(const Options& o) {
  DataplaneConfig c;
  c.shards = 2;
  c.ports_per_shard = 1;
  c.packets_per_port = o.smoke ? 500'000 : 10'000'000;
  c.batch = 32;
  c.ring_capacity = 1024;
  c.fused = true;
  c.service_depth = 128;
  c.seed = o.seed;
  c.tenants = 8;
  c.guard = true;
  c.packet_bytes = 1500;
  return c;
}

// --- helpers ----------------------------------------------------------------

double seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Sorted names of the regular files in `dir`, trace.json excluded (its
/// span durations are wall-clock by design).
std::vector<std::string> artifact_names(const std::string& dir) {
  std::vector<std::string> names;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (e.is_regular_file() && !name.ends_with("_trace.json")) {
      names.push_back(name);
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// Byte-compare the non-trace artifacts of two sweep directories;
/// returns "" or the first difference.
std::string artifact_difference(const std::string& a, const std::string& b) {
  const std::vector<std::string> na = artifact_names(a);
  if (na != artifact_names(b)) {
    return "artifact sets differ between " + a + " and " + b;
  }
  for (const std::string& n : na) {
    if (slurp(a + "/" + n) != slurp(b + "/" + n)) {
      return "artifact " + n + " differs between " + a + " and " + b;
    }
  }
  return "";
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

std::string fresh_dir(const std::string& path) {
  fs::remove_all(path);
  fs::create_directories(path);
  return path;
}

void write_book(qv::obs::JsonWriter& w, const PortBook& b) {
  w.begin_object();
  w.key("generated").value(b.generated);
  w.key("processed").value(b.processed);
  w.key("unknown_dropped").value(b.unknown_dropped);
  w.key("admission_dropped").value(b.admission_dropped);
  w.key("rate_dropped").value(b.rate_dropped);
  w.key("share_dropped").value(b.share_dropped);
  w.key("quantile_dropped").value(b.quantile_dropped);
  w.key("enqueued").value(b.enqueued);
  w.key("dequeued").value(b.dequeued);
  w.key("queue_dropped").value(b.queue_dropped);
  w.key("residual").value(b.residual);
  w.key("delivered_bytes").value(b.delivered_bytes);
  w.key("quarantined").value(b.quarantined);
  w.key("lost_in_flight").value(b.lost_in_flight);
  w.end_object();
}

std::vector<PortBook> port_books(const qv::dataplane::DataplaneResult& r) {
  std::vector<PortBook> books;
  for (const auto& shard : r.shards) {
    books.insert(books.end(), shard.ports.begin(), shard.ports.end());
  }
  return books;
}

/// Invariants every fig4 cell must satisfy, whatever the seed.
std::string fig4_invariant_error(const SimCell& cell, const Fig4Result& r) {
  if (r.events == 0) return "no simulator events";
  if (r.all_flows == 0) return "no measured flows completed";
  if (!(r.edf_deadline_met >= 0.0 && r.edf_deadline_met <= 1.0)) {
    return "EDF deadline-met fraction outside [0, 1]";
  }
  if (!cell.config.reliable && r.drops != 0) {
    return "drops with unbounded buffers";
  }
  return "";
}

/// Invariants of a dataplane run: balanced books, every packet emitted.
std::string dataplane_invariant_error(const DataplaneConfig& cfg,
                                      const std::vector<PortBook>& books) {
  for (const PortBook& b : books) {
    if (!b.balanced() || b.residual != 0) return "unbalanced port book";
    if (b.generated != cfg.packets_per_port) return "short packet stream";
  }
  return "";
}

long peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

/// Redirects QV_LOG records (the reliable cells warn about their drops)
/// away from stderr for the lifetime of the process.
struct QuietLogs {
  std::string sink;
  qv::ScopedLogCapture capture{&sink};
};

// --- result document ----------------------------------------------------------

struct OpRecord {
  std::string key;
  double wall_s = 0;
  double work = 0;  ///< simulator events or processed packets (0: see run.py)
  std::string error;        ///< empty when every check passed
  std::string fingerprint;  ///< fig4 cells: fig4_fingerprint() of the result
};

struct Report {
  std::vector<OpRecord> ops;
  std::int64_t ready_ns = 0;
  std::string artifacts_dir;  ///< fig4_sweep: the reference grid
  std::vector<PortBook> books;  ///< dataplane: the first run's books
  std::map<std::string, double> layers;  ///< traced mode
};

void write_report(const Options& o, const Report& r) {
  qv::obs::JsonWriter w(std::cout);
  w.begin_object();
  w.key("workload").value(o.name);
  w.key("mode").value(o.setup_only ? "setup" : o.trace ? "traced" : "timed");
  w.key("seed").value(o.seed);
  w.key("profile").value(o.smoke ? "smoke" : "full");
  w.key("compiler").value(__VERSION__);
  w.key("cxx_flags").value(QVBENCH_CXX_FLAGS);
  w.key("ready_mono_ns").value(r.ready_ns);
  w.key("peak_rss_kb").value(static_cast<std::int64_t>(peak_rss_kb()));
  w.key("ops").begin_array();
  for (const OpRecord& op : r.ops) {
    w.begin_object();
    w.key("key").value(op.key);
    w.key("wall_s").value(op.wall_s);
    w.key("work").value(op.work);
    w.key("error").value(op.error);
    w.key("fingerprint").value(op.fingerprint);
    w.end_object();
  }
  w.end_array();
  w.key("artifacts_dir").value(r.artifacts_dir);
  w.key("artifacts").begin_array();
  if (!r.artifacts_dir.empty()) {
    for (const std::string& n : artifact_names(r.artifacts_dir)) w.value(n);
  }
  w.end_array();
  w.key("books").begin_array();
  for (const PortBook& b : r.books) write_book(w, b);
  w.end_array();
  w.key("layers").begin_object();
  for (const auto& [name, value] : r.layers) w.key(name).value(value);
  w.end_object();
  w.end_object();
  std::cout << "\n";
}

// --- warm-up ------------------------------------------------------------------

/// One untimed operation so caches, the allocator and lazy set-up are
/// warm before timing: the first cell, a one-cell grid, or one run.
void warm_up(const Options& o) {
  switch (o.workload) {
    case Workload::kSweep: {
      Fig4SweepConfig s = sweep_config(o, fresh_dir(o.work_dir + "/warmup"));
      s.schemes.resize(1);
      s.loads.resize(1);
      qv::experiments::run_fig4_sweep(s);
      break;
    }
    case Workload::kLossless:
    case Workload::kReliable:
      qv::experiments::run_fig4(sim_cells(o).front().config);
      break;
    case Workload::kDataplane:
      qv::dataplane::run_dataplane(dataplane_config(o));
      break;
  }
}

// --- operations -----------------------------------------------------------------

/// Runs operations as a closed loop: operation i + 1 starts only if, at
/// the cost of operation i, it still ends within --seconds (--smoke: run
/// `smoke_ops` once each), and never fewer than `min_ops`. `body(i, op)`
/// fills the record and sets op.wall_s to the span it times (left 0, the
/// whole call counts); an exception fails the operation.
template <typename Body>
void run_ops(const Options& o, std::size_t smoke_ops, std::size_t min_ops,
             Report& r, Body&& body) {
  const std::int64_t start = mono_ns();
  double last_s = 0;
  for (std::size_t i = 0;; ++i) {
    const bool more =
        o.smoke ? i < smoke_ops
                : i == 0 || seconds(mono_ns() - start) + last_s <= o.seconds;
    if (!more && i >= min_ops) break;
    OpRecord op;
    const std::int64_t t0 = mono_ns();
    try {
      body(i, op);
    } catch (const std::exception& e) {
      op.error = e.what();
    }
    if (op.wall_s == 0) op.wall_s = seconds(mono_ns() - t0);
    last_s = op.wall_s;
    r.ops.push_back(std::move(op));
  }
}

/// Golden-file key of a whole-grid or whole-run operation.
std::string op_key(const Options& o) {
  return std::string(o.smoke ? "smoke/" : "full/") + o.name + "/s" +
         std::to_string(o.seed);
}

// --- timed mode ---------------------------------------------------------------

void timed_sweep(const Options& o, Report& r) {
  r.artifacts_dir = o.work_dir + "/grid0";
  run_ops(o, 2, 1, r, [&](std::size_t i, OpRecord& op) {
    op.key = op_key(o);
    const std::string dir = fresh_dir(o.work_dir + "/grid" + std::to_string(i));
    const Fig4SweepConfig s = sweep_config(o, dir);
    const std::int64_t t0 = mono_ns();
    qv::experiments::run_fig4_sweep(s);
    op.wall_s = seconds(mono_ns() - t0);
    if (i > 0) {
      op.error = artifact_difference(r.artifacts_dir, dir);
      fs::remove_all(dir);
    }
  });
}

void timed_sim(const Options& o, Report& r) {
  const std::vector<SimCell> cells = sim_cells(o);
  std::map<std::string, std::string> seen;  // key -> first fingerprint
  run_ops(o, cells.size(), 1, r, [&](std::size_t i, OpRecord& op) {
    const SimCell& cell = cells[i % cells.size()];
    op.key = cell.key;
    const std::int64_t t0 = mono_ns();
    const Fig4Result res = qv::experiments::run_fig4(cell.config);
    op.wall_s = seconds(mono_ns() - t0);
    op.work = static_cast<double>(res.events);
    op.fingerprint = fig4_fingerprint(res);
    op.error = fig4_invariant_error(cell, res);
    const auto [it, fresh] = seen.emplace(cell.key, op.fingerprint);
    if (op.error.empty() && !fresh && it->second != op.fingerprint) {
      op.error = "rerun of " + cell.key + " gave a different result";
    }
  });
}

void timed_dataplane(const Options& o, Report& r) {
  const DataplaneConfig cfg = dataplane_config(o);
  run_ops(o, 2, 1, r, [&](std::size_t, OpRecord& op) {
    op.key = op_key(o);
    const std::int64_t t0 = mono_ns();
    const qv::dataplane::DataplaneResult res = qv::dataplane::run_dataplane(cfg);
    op.wall_s = seconds(mono_ns() - t0);
    op.work = static_cast<double>(res.book().processed);
    const std::vector<PortBook> books = port_books(res);
    op.error = dataplane_invariant_error(cfg, books);
    if (r.books.empty()) r.books = books;
    if (op.error.empty() && books != r.books) {
      op.error = "port books differ from the first run's";
    }
  });
}

// --- traced mode ----------------------------------------------------------------

/// Every per-layer metric BENCHMARK.json declares. A layer a workload
/// does not run reports 0.
const char* const kLayerMetrics[] = {
    "netsim.self_frac",        "netsim.events_per_s",
    "netsim.events",           "netsim.replayed_frac",
    "netsim.heap_scheduled",   "netsim.wheel_migrations",
    "netsim.peak_live",        "netsim.build_frac",
    "sched.self_frac",         "sched.ns_per_op",
    "sched.ops",               "sched.dequeue_batch_mean",
    "sched.drop_frac",         "sched.enqueue_ns_per_pkt",
    "sched.dequeue_ns_per_pkt", "qvisor.self_frac",
    "qvisor.ns_per_pkt",       "qvisor.compile_ms",
    "qvisor.admit_frac",       "telemetry.self_frac",
    "trafficgen.self_frac",    "workload.self_frac",
    "obs.inrun_frac",          "obs.save_metrics_frac",
    "obs.save_trace_frac",     "obs.artifact_mb",
    "obs.trace_dropped_frac",  "exec.busy_frac",
    "exec.tail_frac",          "dataplane.ring_frac",
    "dataplane.gen_frac",      "dataplane.batch_pkts_mean",
    "dataplane.empty_poll_frac", "trace.overhead_frac",
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Per-layer sums over traced fig4 cells.
struct SimLayers {
  std::size_t cells = 0;
  std::size_t qvisor_cells = 0;
  double cell_ns = 0, build_ns = 0, netsim_self_ns = 0, sched_ns = 0;
  double qvisor_self_ns = 0, compile_ns = 0, telemetry_ns = 0;
  double trafficgen_ns = 0, workload_ns = 0;
  double events = 0, replayed = 0, heap_scheduled = 0, migrations = 0;
  double peak_live = 0;
  double sched_calls = 0, enq_ns = 0, enq_pkts = 0, deq_ns = 0, deq_pkts = 0;
  double deq_batch_calls = 0, deq_batch_pkts = 0, dropped = 0;
  double qvisor_pkts = 0, pre_processed = 0, pre_dropped = 0;

  /// Fold one cell in; returns "" or why its spans do not add up.
  std::string add(const CellTrace& t) {
    const SchedLevel& level = t.qvisor ? t.backend : t.port;
    // run_until = netsim self + flow-start callbacks (which contain the
    // port calls they made) + sink callbacks + port calls made outside
    // any callback. The callout sum may exceed run_until only by
    // sampling error, bounded here at 5%.
    const double callouts = static_cast<double>(t.flow_start.ns) +
                            t.sink.total_ns() + t.port.outside_ns();
    const double run = static_cast<double>(t.run_ns);
    const double netsim_self = run - callouts;
    ++cells;
    cell_ns += static_cast<double>(t.cell_ns);
    build_ns += static_cast<double>(t.build_ns);
    netsim_self_ns += std::max(0.0, netsim_self);
    sched_ns += level.total_ns();
    if (t.qvisor) {
      ++qvisor_cells;
      qvisor_self_ns += t.port.total_ns() - t.backend.total_ns();
      qvisor_pkts += static_cast<double>(t.port.enq.items);
      compile_ns += static_cast<double>(t.compile_ns);
    }
    telemetry_ns += t.sink.total_ns() + static_cast<double>(t.collect_ns);
    trafficgen_ns += static_cast<double>(t.flow_start.self_ns());
    workload_ns += static_cast<double>(t.arrivals_ns);
    events += static_cast<double>(t.events);
    replayed += static_cast<double>(t.replayed);
    heap_scheduled += static_cast<double>(t.wheel.scheduled_heap);
    migrations += static_cast<double>(t.wheel.migrated_from_heap +
                                      t.wheel.migrated_wheel_levels);
    peak_live = std::max(peak_live, static_cast<double>(t.wheel.peak_live));
    sched_calls += static_cast<double>(level.enq.calls + level.deq.calls);
    enq_ns += level.enq.total_ns();
    enq_pkts += static_cast<double>(level.enq.items);
    deq_ns += level.deq.total_ns();
    deq_pkts += static_cast<double>(level.deq.items);
    deq_batch_calls += static_cast<double>(level.dequeue_batch_calls);
    deq_batch_pkts += static_cast<double>(level.dequeue_batch_pkts);
    dropped += static_cast<double>(level.dropped);
    pre_processed += static_cast<double>(t.pre_processed);
    pre_dropped += static_cast<double>(t.pre_dropped);
    const double parts = std::max(0.0, netsim_self) + callouts;
    if (std::abs(parts - run) > 0.05 * run) {
      return "timed callouts exceed run_until by " +
             std::to_string(100.0 * (parts - run) / run) + "%";
    }
    return "";
  }

  void report(std::map<std::string, double>& m) const {
    const double n = static_cast<double>(cells);
    m["netsim.self_frac"] = ratio(netsim_self_ns + build_ns, cell_ns);
    m["netsim.events_per_s"] = ratio(events, netsim_self_ns / 1e9);
    m["netsim.events"] = ratio(events, n);
    m["netsim.replayed_frac"] = ratio(replayed, events);
    m["netsim.heap_scheduled"] = ratio(heap_scheduled, n);
    m["netsim.wheel_migrations"] = ratio(migrations, n);
    m["netsim.peak_live"] = peak_live;
    m["netsim.build_frac"] = ratio(build_ns, cell_ns);
    m["sched.self_frac"] = ratio(sched_ns, cell_ns);
    m["sched.ns_per_op"] = ratio(sched_ns, sched_calls);
    m["sched.ops"] = ratio(sched_calls, n);
    m["sched.dequeue_batch_mean"] = ratio(deq_batch_pkts, deq_batch_calls);
    m["sched.drop_frac"] = ratio(dropped, enq_pkts);
    m["sched.enqueue_ns_per_pkt"] = ratio(enq_ns, enq_pkts);
    m["sched.dequeue_ns_per_pkt"] = ratio(deq_ns, deq_pkts);
    m["qvisor.self_frac"] = ratio(qvisor_self_ns + compile_ns, cell_ns);
    m["qvisor.ns_per_pkt"] = ratio(qvisor_self_ns, qvisor_pkts);
    m["qvisor.compile_ms"] =
        ratio(compile_ns / 1e6, static_cast<double>(qvisor_cells));
    m["qvisor.admit_frac"] = ratio(pre_processed - pre_dropped, pre_processed);
    m["telemetry.self_frac"] = ratio(telemetry_ns, cell_ns);
    m["trafficgen.self_frac"] = ratio(trafficgen_ns, cell_ns);
    m["workload.self_frac"] = ratio(workload_ns, cell_ns);
  }
};

void traced_sim(const Options& o, SpanLog& spans, Report& r) {
  const std::vector<SimCell> cells = sim_cells(o);
  SimLayers layers;
  std::vector<double> overhead;
  // fig4_reliable alternates fifo and qvisor-pfabric: run at least one of
  // each so every layer is measured.
  const std::size_t min_ops = std::min<std::size_t>(2, cells.size());
  run_ops(o, cells.size(), min_ops, r, [&](std::size_t i, OpRecord& op) {
    const SimCell& cell = cells[i % cells.size()];
    op.key = cell.key;
    Scope pair(&spans, "pair", -1);
    CellTrace t;
    Fig4Result pub;
    std::int64_t pub_ns = 0;
    const auto run_public = [&] {
      Scope s(&spans, "run_fig4", pair.id());
      pub = qv::experiments::run_fig4(cell.config);
      pub_ns = s.finish();
    };
    // Alternate which side runs first so warm-cache order cancels.
    if (i % 2) run_public();
    const Fig4Result copy = run_fig4_traced(cell.config, t, &spans, pair.id());
    if (i % 2 == 0) run_public();
    overhead.push_back(ratio(static_cast<double>(t.cell_ns),
                             static_cast<double>(pub_ns)) - 1.0);
    op.error = layers.add(t);
    if (fig4_fingerprint(copy) != fig4_fingerprint(pub)) {
      op.error = "traced copy of " + cell.key + " differs from run_fig4";
    }
  });
  layers.report(r.layers);
  r.layers["trace.overhead_frac"] = median(overhead);
}

/// Output of one cell of the traced sweep copy.
struct SweepCopyCell {
  CellTrace trace;
  Fig4Result result;
  Fig4Scheme scheme = Fig4Scheme::kFifoBoth;
  double load = 0;
  std::uint64_t seed = 0;
  std::int64_t busy_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t save_metrics_ns = 0;
  std::int64_t save_trace_ns = 0;
  std::uint64_t trace_kept = 0;
  std::uint64_t trace_dropped = 0;
  std::thread::id worker;
};

/// The trace mask sweeps.cpp derives from SweepObsOptions.
std::uint32_t sweep_trace_mask(const qv::experiments::SweepObsOptions& opts) {
  if (!opts.trace) return 0;
  std::uint32_t mask = qv::obs::trace_bit(qv::obs::TraceCategory::kSched) |
                       qv::obs::trace_bit(qv::obs::TraceCategory::kQvisor) |
                       qv::obs::trace_bit(qv::obs::TraceCategory::kRuntime);
  if (opts.trace_sim) mask |= qv::obs::trace_bit(qv::obs::TraceCategory::kSim);
  return mask;
}

/// A copy of run_fig4_sweep: the same grid through exec::run_sweep, each
/// cell = Observability, the traced fig4 cell, then the two artifact
/// writers, each timed; then fig4_summary.json exactly as sweeps.cpp
/// writes it. With `bare`, cells run with obs = null and write nothing.
std::vector<SweepCopyCell> sweep_copy(const Fig4SweepConfig& sweep, bool bare,
                                      SpanLog& spans, int parent) {
  const std::size_t per_scheme = sweep.loads.size() * sweep.seeds.size();
  auto outs = qv::exec::run_sweep<SweepCopyCell>(
      sweep.schemes.size() * per_scheme,
      [&](std::size_t i) {
        SweepCopyCell out;
        out.scheme = sweep.schemes[i / per_scheme];
        out.load = sweep.loads[(i % per_scheme) / sweep.seeds.size()];
        out.seed = sweep.seeds[i % sweep.seeds.size()];
        char load_suffix[32] = "";
        if (sweep.loads.size() > 1) {
          std::snprintf(load_suffix, sizeof(load_suffix), "_l%g",
                        out.load * 100.0);
        }
        const std::string stem =
            sweep.out_dir + "/fig4_" +
            qv::experiments::fig4_scheme_slug(out.scheme) + load_suffix +
            (sweep.seeds.size() > 1 ? "_s" + std::to_string(out.seed) : "");
        std::string log;
        qv::ScopedLogCapture capture(&log);
        Scope cell(&spans, "sweep.cell", parent);
        Fig4Config config = sweep.base;
        config.scheme = out.scheme;
        config.load = out.load;
        config.seed = out.seed;
        if (bare) {
          out.result = run_fig4_traced(config, out.trace, &spans, cell.id());
        } else {
          qv::obs::Observability obs(sweep.obs.trace_capacity);
          obs.sample_interval = qv::microseconds(sweep.obs.sample_interval_us);
          obs.tracer.set_mask(sweep_trace_mask(sweep.obs));
          config.obs = &obs;
          config.flow_csv = stem + "_flows.csv";
          out.result = run_fig4_traced(config, out.trace, &spans, cell.id());
          {
            Scope s(&spans, "obs.save_metrics", cell.id());
            qv::obs::save_metrics_json(stem + "_metrics.json", obs.registry);
            out.save_metrics_ns = s.finish();
          }
          {
            Scope s(&spans, "obs.save_trace", cell.id());
            qv::obs::save_trace_json(stem + "_trace.json", obs.tracer);
            out.save_trace_ns = s.finish();
          }
          out.trace_kept = obs.tracer.size();
          out.trace_dropped = obs.tracer.dropped();
        }
        out.busy_ns = cell.finish();
        out.end_ns = mono_ns();
        out.worker = std::this_thread::get_id();
        return out;
      },
      {sweep.jobs});
  if (bare) return outs;

  const std::string path = sweep.out_dir + "/fig4_summary.json";
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  qv::obs::JsonWriter w(out);
  w.begin_object();
  w.key("experiment").value("fig4");
  w.key("grid").begin_array();
  for (const SweepCopyCell& o : outs) {
    w.begin_object();
    w.key("scheme").value(qv::experiments::fig4_scheme_slug(o.scheme));
    w.key("load").value(o.load);
    w.key("seed").value(o.seed);
    w.key("mean_small_ms").value(o.result.mean_small_ms);
    w.key("mean_small_lb_ms").value(o.result.mean_small_lb_ms);
    w.key("p99_small_ms").value(o.result.p99_small_ms);
    w.key("small_flows").value(static_cast<std::uint64_t>(o.result.small_flows));
    w.key("mean_large_ms").value(o.result.mean_large_ms);
    w.key("mean_large_lb_ms").value(o.result.mean_large_lb_ms);
    w.key("large_flows").value(static_cast<std::uint64_t>(o.result.large_flows));
    w.key("edf_deadline_met").value(o.result.edf_deadline_met);
    w.key("drops").value(o.result.drops);
    w.key("events").value(o.result.events);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << "\n";
  return outs;
}

void traced_sweep(const Options& o, SpanLog& spans, Report& r) {
  SimLayers layers;
  double busy_ns = 0, grid_ns = 0, tail_ns = 0, inrun_ns = 0;
  double save_metrics_ns = 0, save_trace_ns = 0, artifact_bytes = 0;
  double trace_kept = 0, trace_dropped = 0, grids = 0;
  std::vector<double> overhead;
  run_ops(o, 1, 1, r, [&](std::size_t i, OpRecord& op) {
    op.key = op_key(o);
    Scope pair(&spans, "pair", -1);
    const std::string tag = std::to_string(i);
    const Fig4SweepConfig pub =
        sweep_config(o, fresh_dir(o.work_dir + "/public" + tag));
    const Fig4SweepConfig copy =
        sweep_config(o, fresh_dir(o.work_dir + "/copy" + tag));
    std::int64_t pub_ns = 0;
    const auto run_public = [&] {
      Scope s(&spans, "run_fig4_sweep", pair.id());
      qv::experiments::run_fig4_sweep(pub);
      pub_ns = s.finish();
    };
    if (i % 2) run_public();
    Scope grid(&spans, "sweep.grid", pair.id());
    const std::vector<SweepCopyCell> cells =
        sweep_copy(copy, false, spans, grid.id());
    const std::int64_t grid_end = mono_ns();
    const double wall = static_cast<double>(grid.finish());
    if (i % 2 == 0) run_public();
    Scope bare_grid(&spans, "sweep.bare_grid", pair.id());
    const std::vector<SweepCopyCell> bare =
        sweep_copy(copy, true, spans, bare_grid.id());
    bare_grid.finish();

    // Tail: from the first worker's last cell ending to the grid end.
    std::map<std::thread::id, std::int64_t> last_end;
    for (std::size_t k = 0; k < cells.size(); ++k) {
      const SweepCopyCell& c = cells[k];
      std::int64_t& e = last_end[c.worker];
      e = std::max(e, c.end_ns);
      const std::string bad = layers.add(c.trace);
      if (!bad.empty()) op.error = bad;
      busy_ns += static_cast<double>(c.busy_ns);
      save_metrics_ns += static_cast<double>(c.save_metrics_ns);
      save_trace_ns += static_cast<double>(c.save_trace_ns);
      trace_kept += static_cast<double>(c.trace_kept);
      trace_dropped += static_cast<double>(c.trace_dropped);
      inrun_ns += static_cast<double>(c.trace.run_ns - bare[k].trace.run_ns);
    }
    std::int64_t first_idle = grid_end;
    for (const auto& [worker, end] : last_end) {
      first_idle = std::min(first_idle, end);
    }
    tail_ns += static_cast<double>(grid_end - first_idle);
    grid_ns += wall;
    ++grids;
    artifact_bytes += static_cast<double>(dir_bytes(copy.out_dir));
    overhead.push_back(ratio(wall, static_cast<double>(pub_ns)) - 1.0);
    const std::string diff = artifact_difference(pub.out_dir, copy.out_dir);
    if (!diff.empty()) op.error = "traced sweep copy: " + diff;
    fs::remove_all(pub.out_dir);
    fs::remove_all(copy.out_dir);
  });
  layers.report(r.layers);
  r.layers["obs.inrun_frac"] = ratio(inrun_ns, busy_ns);
  r.layers["obs.save_metrics_frac"] = ratio(save_metrics_ns, busy_ns);
  r.layers["obs.save_trace_frac"] = ratio(save_trace_ns, busy_ns);
  r.layers["obs.artifact_mb"] = ratio(artifact_bytes / 1e6, grids);
  r.layers["obs.trace_dropped_frac"] =
      ratio(trace_dropped, trace_dropped + trace_kept);
  r.layers["exec.busy_frac"] =
      ratio(busy_ns, static_cast<double>(kJobs) * grid_ns);
  r.layers["exec.tail_frac"] = ratio(tail_ns, grid_ns);
  r.layers["trace.overhead_frac"] = median(overhead);
}

void traced_dataplane(const Options& o, SpanLog& spans, Report& r) {
  const DataplaneConfig cfg = dataplane_config(o);
  double busy = 0, wall = 0, tail = 0, compile = 0, gen = 0, ring = 0;
  double pre = 0, enq = 0, deq = 0, pkts = 0, enq_calls = 0, enq_pkts = 0;
  double deq_calls = 0, deq_pkts = 0, batches = 0, empty = 0;
  double processed = 0, enqueued = 0, queue_dropped = 0;
  double runs = 0;
  std::vector<double> overhead;
  run_ops(o, 1, 1, r, [&](std::size_t i, OpRecord& op) {
    op.key = op_key(o);
    Scope pair(&spans, "pair", -1);
    qv::dataplane::DataplaneResult pub;
    const auto run_public = [&] {
      Scope s(&spans, "run_dataplane", pair.id());
      pub = qv::dataplane::run_dataplane(cfg);
    };
    if (i % 2) run_public();
    const DataplaneTrace t = run_dataplane_traced(cfg, &spans, pair.id());
    if (i % 2 == 0) run_public();
    overhead.push_back(ratio(seconds(t.wall_ns), pub.wall_seconds) - 1.0);
    std::vector<PortBook> books;
    std::int64_t first_end = t.shards.front().end_ns;
    std::int64_t last_end = first_end;
    for (const ShardTrace& sh : t.shards) {
      busy += static_cast<double>(sh.end_ns - sh.start_ns);
      gen += static_cast<double>(sh.gen_ns);
      ring += static_cast<double>(sh.ring_ns);
      pre += static_cast<double>(sh.pre_ns);
      enq += static_cast<double>(sh.enq_ns);
      deq += static_cast<double>(sh.deq_ns);
      pkts += static_cast<double>(sh.pkts);
      enq_calls += static_cast<double>(sh.enq_calls);
      enq_pkts += static_cast<double>(sh.enq_pkts);
      deq_calls += static_cast<double>(sh.deq_calls);
      deq_pkts += static_cast<double>(sh.deq_pkts);
      batches += static_cast<double>(sh.batches);
      empty += static_cast<double>(sh.empty_polls);
      first_end = std::min(first_end, sh.end_ns);
      last_end = std::max(last_end, sh.end_ns);
      for (const PortBook& b : sh.ports) {
        processed += static_cast<double>(b.processed);
        enqueued += static_cast<double>(b.enqueued);
        queue_dropped += static_cast<double>(b.queue_dropped);
        books.push_back(b);
      }
    }
    wall += static_cast<double>(t.wall_ns);
    tail += static_cast<double>(last_end - first_end);
    compile += static_cast<double>(t.compile_ns);
    ++runs;
    if (books != port_books(pub)) {
      op.error = "traced dataplane copy's port books differ from run_dataplane's";
    }
  });
  std::map<std::string, double>& m = r.layers;
  m["sched.self_frac"] = ratio(enq + deq, busy);
  m["sched.ns_per_op"] = ratio(enq + deq, enq_calls + deq_calls);
  m["sched.ops"] = ratio(enq_calls + deq_calls, runs);
  m["sched.dequeue_batch_mean"] = ratio(deq_pkts, deq_calls);
  m["sched.drop_frac"] = ratio(queue_dropped, enq_pkts);
  m["sched.enqueue_ns_per_pkt"] = ratio(enq, enq_pkts);
  m["sched.dequeue_ns_per_pkt"] = ratio(deq, deq_pkts);
  m["qvisor.self_frac"] = ratio(pre, busy);
  m["qvisor.ns_per_pkt"] = ratio(pre, pkts);
  m["qvisor.compile_ms"] = ratio(compile / 1e6, runs);
  m["qvisor.admit_frac"] = ratio(enqueued, processed);
  m["exec.busy_frac"] = ratio(busy, static_cast<double>(cfg.shards) * wall);
  m["exec.tail_frac"] = ratio(tail, wall);
  m["dataplane.ring_frac"] = ratio(ring, busy);
  m["dataplane.gen_frac"] = ratio(gen, busy);
  m["dataplane.batch_pkts_mean"] = ratio(pkts, batches);
  m["dataplane.empty_poll_frac"] = ratio(empty, batches + empty);
  m["trace.overhead_frac"] = median(overhead);
}

// --- main -----------------------------------------------------------------------

bool parse_options(int argc, char** argv, Options* o) {
  qv::Flags flags;
  flags.define_string("workload", "",
                      "fig4_sweep | fig4_lossless | fig4_reliable | dataplane");
  flags.define_int("seed", 1, "workload seed (cells shift it as documented)");
  flags.define_double("seconds", 15, "measurement budget per process");
  flags.define_bool("smoke", false, "tiny inputs, every operation once");
  flags.define_bool("trace", false, "run the traced copies instead");
  flags.define_bool("setup-only", false, "stop after the warm-up operation");
  flags.define_string("work-dir", "", "scratch directory for artifacts");
  flags.define_string("spans-out", "", "traced mode: Chrome-trace span file");
  if (!flags.parse(argc, argv) || flags.help_requested()) return false;
  const std::map<std::string, Workload> names = {
      {"fig4_sweep", Workload::kSweep},
      {"fig4_lossless", Workload::kLossless},
      {"fig4_reliable", Workload::kReliable},
      {"dataplane", Workload::kDataplane}};
  const auto it = names.find(flags.get_string("workload"));
  if (it == names.end()) {
    std::fprintf(stderr, "qvbench: unknown --workload '%s'\n",
                 flags.get_string("workload").c_str());
    return false;
  }
  o->workload = it->second;
  o->name = it->first;
  if (flags.get_int("seed") < 0) {
    std::fprintf(stderr, "qvbench: --seed must be >= 0\n");
    return false;
  }
  o->seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  o->seconds = flags.get_double("seconds");
  o->smoke = flags.get_bool("smoke");
  o->trace = flags.get_bool("trace");
  o->setup_only = flags.get_bool("setup-only");
  o->work_dir = flags.get_string("work-dir");
  o->spans_out = flags.get_string("spans-out");
  if (o->work_dir.empty()) {
    std::fprintf(stderr, "qvbench: --work-dir is required\n");
    return false;
  }
  return true;
}

int run(const Options& o) {
  QuietLogs quiet;
  fs::create_directories(o.work_dir);
  Report r;
  warm_up(o);
  r.ready_ns = mono_ns();
  if (o.setup_only) {
    write_report(o, r);
    return 0;
  }
  if (o.trace) {
    SpanLog spans;
    for (const char* name : kLayerMetrics) r.layers[name] = 0.0;
    switch (o.workload) {
      case Workload::kSweep:
        traced_sweep(o, spans, r);
        break;
      case Workload::kLossless:
      case Workload::kReliable:
        traced_sim(o, spans, r);
        break;
      case Workload::kDataplane:
        traced_dataplane(o, spans, r);
        break;
    }
    if (!o.spans_out.empty()) spans.write_chrome_trace(o.spans_out);
  } else {
    switch (o.workload) {
      case Workload::kSweep:
        timed_sweep(o, r);
        break;
      case Workload::kLossless:
      case Workload::kReliable:
        timed_sim(o, r);
        break;
      case Workload::kDataplane:
        timed_dataplane(o, r);
        break;
    }
  }
  write_report(o, r);
  return 0;
}

}  // namespace
}  // namespace qvb

int main(int argc, char** argv) {
  qvb::Options o;
  if (!qvb::parse_options(argc, argv, &o)) return 2;
  try {
    return qvb::run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qvbench: %s\n", e.what());
    return 1;
  }
}
