#include "fig4_copy.hpp"

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <utility>

#include "experiments/obs_wiring.hpp"
#include "netsim/network.hpp"
#include "netsim/simulator.hpp"
#include "netsim/topology.hpp"
#include "obs/obs.hpp"
#include "qvisor/backend.hpp"
#include "qvisor/qvisor.hpp"
#include "sched/fifo.hpp"
#include "sched/pifo.hpp"
#include "sched/rank/edf.hpp"
#include "sched/rank/pfabric.hpp"
#include "telemetry/fct_tracker.hpp"
#include "telemetry/trace_io.hpp"
#include "trafficgen/cbr_source.hpp"
#include "trafficgen/host_source.hpp"
#include "trafficgen/reliable_source.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"
#include "workload/arrivals.hpp"
#include "workload/cdf.hpp"

namespace qvb {

namespace {

using qv::Packet;
using qv::TimeNs;
using qv::experiments::Fig4Config;
using qv::experiments::Fig4Result;
using qv::experiments::Fig4Scheme;

// The constants of experiments/fig4.cpp (internal there).
constexpr qv::TenantId kPfabricTenant = 1;
constexpr qv::TenantId kEdfTenant = 2;
constexpr qv::FlowId kPfabricFlowBase = 1'000'000;
constexpr std::int64_t kMtu = 1500;

bool uses_qvisor(Fig4Scheme s) {
  return s == Fig4Scheme::kQvisorEdfOverPfabric ||
         s == Fig4Scheme::kQvisorShare ||
         s == Fig4Scheme::kQvisorPfabricOverEdf;
}

const char* qvisor_policy_string(Fig4Scheme s) {
  switch (s) {
    case Fig4Scheme::kQvisorEdfOverPfabric:
      return "edf >> pfabric";
    case Fig4Scheme::kQvisorShare:
      return "pfabric + edf";
    case Fig4Scheme::kQvisorPfabricOverEdf:
      return "pfabric >> edf";
    default:
      return "";
  }
}

/// Transparent decorator: forwards every Scheduler call to `inner` and
/// books it in `level`.
class TimedScheduler final : public qv::sched::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<qv::sched::Scheduler> inner,
                 SchedLevel& level)
      : inner_(std::move(inner)), level_(level) {
    level_.members.push_back(inner_.get());
  }

  bool enqueue(const Packet& p, TimeNs now) override {
    level_.enq.items += 1;
    return level_.enq.time([&] { return inner_->enqueue(p, now); });
  }
  std::size_t enqueue_batch(std::span<Packet> batch, TimeNs now) override {
    level_.enq.items += batch.size();
    return level_.enq.time([&] { return inner_->enqueue_batch(batch, now); });
  }
  std::optional<Packet> dequeue(TimeNs now) override {
    std::optional<Packet> p = level_.deq.time([&] { return inner_->dequeue(now); });
    if (p) level_.deq.items += 1;
    return p;
  }
  std::size_t dequeue_batch(std::span<Packet> out, TimeNs now) override {
    const std::size_t n =
        level_.deq.time([&] { return inner_->dequeue_batch(out, now); });
    level_.deq.items += n;
    ++level_.dequeue_batch_calls;
    level_.dequeue_batch_pkts += n;
    return n;
  }
  std::size_t size() const override { return inner_->size(); }
  std::int64_t buffered_bytes() const override {
    return inner_->buffered_bytes();
  }
  std::string name() const override { return inner_->name(); }
  const qv::sched::SchedulerCounters& counters() const override {
    return inner_->counters();
  }
  void export_metrics(qv::obs::Registry& reg,
                      const std::string& prefix) const override {
    inner_->export_metrics(reg, prefix);
  }

 private:
  std::unique_ptr<qv::sched::Scheduler> inner_;
  SchedLevel& level_;
};

/// Backend wrapper: the PIFO each QVISOR port instantiates comes back
/// wrapped in a TimedScheduler booking into `level`.
class TimedBackend final : public qv::qvisor::Backend {
 public:
  TimedBackend(qv::qvisor::BackendPtr inner, SchedLevel& level)
      : inner_(std::move(inner)), level_(level) {}

  qv::qvisor::SchedulerCapabilities capabilities() const override {
    return inner_->capabilities();
  }
  std::string name() const override { return inner_->name(); }
  std::unique_ptr<qv::sched::Scheduler> instantiate(
      const qv::qvisor::SynthesisPlan& plan) const override {
    return std::make_unique<TimedScheduler>(inner_->instantiate(plan), level_);
  }
  std::vector<std::string> guarantees(
      const qv::qvisor::SynthesisPlan& plan) const override {
    return inner_->guarantees(plan);
  }

 private:
  qv::qvisor::BackendPtr inner_;
  SchedLevel& level_;
};

}  // namespace

Fig4Result run_fig4_traced(const Fig4Config& raw_config, CellTrace& trace,
                           SpanLog* spans, int parent) {
  namespace netsim = qv::netsim;
  namespace sched = qv::sched;
  namespace qvisor = qv::qvisor;
  namespace telemetry = qv::telemetry;
  namespace trafficgen = qv::trafficgen;
  namespace workload = qv::workload;

  Fig4Config config = raw_config;
  if (config.reliable && config.buffer_bytes == 0) {
    config.buffer_bytes = config.reliable_buffer_bytes;
  }
  Scope cell(spans, "fig4.cell", parent);
  trace.qvisor = uses_qvisor(config.scheme);

  netsim::Simulator sim;
  sim.set_simcore(config.per_event_simcore
                      ? netsim::Simulator::SimCore::kPerEventReference
                      : netsim::Simulator::SimCore::kOverhauled);

  const workload::Cdf cdf = workload::data_mining_cdf(config.max_flow_bytes);
  const auto max_pfabric_rank =
      static_cast<qv::Rank>(static_cast<std::int64_t>(cdf.max()) + 1);
  auto pfabric_ranker = std::make_shared<sched::PFabricRanker>(
      /*bytes_per_level=*/1, max_pfabric_rank);
  const TimeNs edf_granularity = qv::microseconds(1);
  const auto max_edf_rank =
      static_cast<qv::Rank>(config.cbr_deadline_slack / edf_granularity + 1);
  auto edf_ranker =
      std::make_shared<sched::EdfRanker>(edf_granularity, max_edf_rank);

  std::unique_ptr<qvisor::Hypervisor> hv;
  if (trace.qvisor) {
    std::vector<qvisor::TenantSpec> tenants;
    tenants.push_back(qvisor::TenantSpec::make(kPfabricTenant, "pfabric",
                                               pfabric_ranker));
    tenants.push_back(
        qvisor::TenantSpec::make(kEdfTenant, "edf", edf_ranker));
    auto parsed = qvisor::parse_policy(qvisor_policy_string(config.scheme));
    if (!parsed.ok()) throw std::runtime_error("policy: " + parsed.error);
    qvisor::SynthesizerConfig synth;
    synth.levels_per_group = config.qvisor_levels;
    auto backend = std::make_shared<TimedBackend>(
        std::make_shared<qvisor::PifoBackend>(config.buffer_bytes),
        trace.backend);
    hv = std::make_unique<qvisor::Hypervisor>(
        std::move(tenants), std::move(*parsed.policy), std::move(backend),
        synth);
    Scope s(spans, "qvisor.compile", cell.id());
    auto compiled = hv->compile();
    trace.compile_ns = s.finish();
    if (!compiled.ok) {
      throw std::runtime_error("QVISOR compile failed: " + compiled.error);
    }
  }

  std::vector<const qvisor::QvisorPort*> qports;
  netsim::SchedulerFactory factory =
      [&](const netsim::PortContext&) -> std::unique_ptr<sched::Scheduler> {
    std::unique_ptr<sched::Scheduler> inner;
    switch (config.scheme) {
      case Fig4Scheme::kFifoBoth:
        inner = std::make_unique<sched::FifoQueue>(config.buffer_bytes);
        break;
      case Fig4Scheme::kPifoNaive:
      case Fig4Scheme::kPifoIdeal:
        inner = std::make_unique<sched::PifoQueue>(config.buffer_bytes);
        break;
      default: {
        inner = hv->make_port_scheduler();
        const auto* port = dynamic_cast<const qvisor::QvisorPort*>(inner.get());
        if (port == nullptr) throw std::runtime_error("port is not a QvisorPort");
        qports.push_back(port);
        break;
      }
    }
    return std::make_unique<TimedScheduler>(std::move(inner), trace.port);
  };

  netsim::Network net(sim);
  netsim::LeafSpine fabric;
  {
    Scope s(spans, "netsim.build", cell.id());
    fabric = netsim::build_leaf_spine(net, config.topo, factory);
    trace.build_ns = s.finish();
  }
  const std::size_t num_hosts = fabric.hosts.size();

  telemetry::FctTracker fct(/*dedup_by_seq=*/config.reliable);
  telemetry::DeadlineTracker deadlines;
  const auto on_data = [&](const Packet& p, TimeNs now) {
    trace.sink.time([&] {
      fct.on_packet_delivered(p, now);
      if (p.tenant == kEdfTenant) deadlines.on_packet_delivered(p, now);
    });
  };
  if (!config.reliable) {
    for (netsim::Host* host : fabric.hosts) {
      host->set_sink([&](const Packet& p) { on_data(p, sim.now()); });
    }
  }

  std::vector<std::unique_ptr<trafficgen::HostSource>> sources;
  std::vector<std::unique_ptr<trafficgen::ReliableHostSource>> rsources;
  std::vector<std::unique_ptr<trafficgen::ReliableSink>> rsinks;
  if (config.reliable) {
    rsources.reserve(num_hosts);
    rsinks.reserve(num_hosts);
    for (netsim::Host* host : fabric.hosts) {
      rsources.push_back(std::make_unique<trafficgen::ReliableHostSource>(
          sim, *host, kPfabricTenant, pfabric_ranker,
          config.topo.access_rate, config.rto, kMtu));
      rsinks.push_back(std::make_unique<trafficgen::ReliableSink>(
          sim, *host, rsources.back().get(), on_data));
      rsinks.back()->set_ack_filter(
          [](const Packet& p) { return p.tenant == kPfabricTenant; });
      rsinks.back()->attach();
    }
  } else {
    sources.reserve(num_hosts);
    for (netsim::Host* host : fabric.hosts) {
      sources.push_back(std::make_unique<trafficgen::HostSource>(
          sim, *host, kPfabricTenant, pfabric_ranker,
          config.topo.access_rate, kMtu));
    }
  }

  workload::ArrivalConfig arrivals_cfg;
  arrivals_cfg.load = config.load;
  arrivals_cfg.access_rate = config.topo.access_rate;
  arrivals_cfg.num_hosts = num_hosts;
  arrivals_cfg.start = 0;
  arrivals_cfg.end = config.total_duration();
  arrivals_cfg.seed = config.seed;
  std::vector<workload::FlowArrival> arrivals;
  {
    Scope s(spans, "workload.arrivals", cell.id());
    arrivals = workload::generate_poisson_arrivals(arrivals_cfg, cdf);
    trace.arrivals_ns = s.finish();
  }

  qv::FlowId next_flow = kPfabricFlowBase;
  for (const auto& arrival : arrivals) {
    const qv::FlowId flow = next_flow++;
    sim.at(arrival.at, [&, flow, arrival] {
      trace.flow_start.time([&] {
        fct.on_flow_start(flow, kPfabricTenant, arrival.size_bytes,
                          sim.now());
        const qv::NodeId dst = fabric.hosts[arrival.dst_host]->id();
        if (config.reliable) {
          rsources[arrival.src_host]->start_flow(flow, dst,
                                                 arrival.size_bytes);
        } else {
          sources[arrival.src_host]->start_flow(flow, dst,
                                                arrival.size_bytes);
        }
      });
    });
  }

  std::vector<std::unique_ptr<trafficgen::CbrSource>> cbr;
  if (config.scheme != Fig4Scheme::kPifoIdeal) {
    qv::Rng pair_rng(config.seed ^ 0xedf0edf0edf0ULL);
    std::vector<std::size_t> perm(num_hosts);
    for (std::size_t i = 0; i < num_hosts; ++i) perm[i] = i;
    for (std::size_t i = num_hosts - 1; i > 0; --i) {
      const auto j = static_cast<std::size_t>(pair_rng.next_below(i + 1));
      std::swap(perm[i], perm[j]);
    }
    std::size_t made = 0;
    for (std::size_t i = 0; i < num_hosts && made < config.cbr_flows; ++i) {
      if (perm[i] == i) continue;
      cbr.push_back(std::make_unique<trafficgen::CbrSource>(
          sim, *fabric.hosts[i], fabric.hosts[perm[i]]->id(),
          /*flow=*/1 + made, kEdfTenant, edf_ranker, config.cbr_rate,
          config.cbr_deadline_slack, /*start=*/TimeNs{0},
          /*stop=*/config.total_duration()));
      ++made;
    }
  }

  if (config.obs != nullptr) {
    Scope s(spans, "obs.wire", cell.id());
    qv::experiments::wire_network_obs(net, *config.obs,
                                      config.total_duration());
    if (hv) qv::experiments::wire_hypervisor_obs(*hv, *config.obs);
  }

  {
    Scope s(spans, "netsim.run", cell.id());
    sim.run_until(config.total_duration());
    trace.run_ns = s.finish();
  }

  Fig4Result result;
  {
    Scope s(spans, "telemetry.collect", cell.id());
    telemetry::FlowFilter measured;
    measured.tenant = kPfabricTenant;
    measured.started_from = config.warmup;
    measured.started_to = config.warmup + config.measure_window;
    telemetry::FlowFilter small = measured;
    small.max_bytes = 100'000;
    telemetry::FlowFilter large = measured;
    large.min_bytes = 1'000'000;

    const TimeNs horizon = config.total_duration();
    const qv::Sample small_fct = fct.fct_ms(small);
    result.mean_small_ms = small_fct.mean();
    result.p99_small_ms = small_fct.p99();
    result.small_flows = small_fct.count();
    result.small_incomplete = fct.incomplete(small);
    result.mean_small_lb_ms = fct.fct_lower_bound_ms(small, horizon).mean();

    const qv::Sample large_fct = fct.fct_ms(large);
    result.mean_large_ms = large_fct.mean();
    result.large_flows = large_fct.count();
    result.large_incomplete = fct.incomplete(large);
    result.mean_large_lb_ms = fct.fct_lower_bound_ms(large, horizon).mean();

    const qv::Sample all_fct = fct.fct_ms(measured);
    result.mean_all_ms = all_fct.mean();
    result.all_flows = all_fct.count();

    result.edf_deadline_met = deadlines.met_fraction();
    result.drops = net.total_drops();
    result.events = sim.events_processed();
    result.wheel = sim.wheel_stats();
    result.events_replayed = sim.events_replayed();
    if (result.drops > 0) {
      QV_WARN << "fig4 " << qv::experiments::fig4_scheme_name(config.scheme)
              << " load " << config.load << ": " << result.drops
              << " packet drops (finite buffers?)";
    }
    if (!config.flow_csv.empty()) {
      telemetry::save_flow_csv(config.flow_csv, fct, measured);
    }
    trace.collect_ns = s.finish();
  }

  if (config.obs != nullptr) {
    Scope s(spans, "obs.export", cell.id());
    qv::obs::Registry& reg = config.obs->registry;
    qv::experiments::export_network_metrics(net, reg);
    if (hv) hv->export_metrics(reg, "qvisor");
    reg.counter("sim.events_processed").inc(result.events);
    reg.set_gauge("result.mean_small_ms", result.mean_small_ms);
    reg.set_gauge("result.p99_small_ms", result.p99_small_ms);
    reg.set_gauge("result.mean_small_lb_ms", result.mean_small_lb_ms);
    reg.set_gauge("result.mean_large_ms", result.mean_large_ms);
    reg.set_gauge("result.mean_large_lb_ms", result.mean_large_lb_ms);
    reg.set_gauge("result.edf_deadline_met", result.edf_deadline_met);
    reg.set_gauge("result.drops", static_cast<double>(result.drops));
    reg.freeze();
  }

  for (const sched::Scheduler* s : trace.port.members) {
    trace.port.dropped += s->counters().dropped;
  }
  for (const sched::Scheduler* s : trace.backend.members) {
    trace.backend.dropped += s->counters().dropped;
  }
  trace.port.members.clear();
  trace.backend.members.clear();
  for (const qvisor::QvisorPort* p : qports) {
    const qvisor::PreprocessorCounters& c = p->preprocessor().counters();
    trace.pre_processed += c.processed;
    trace.pre_dropped += c.admission_dropped + c.unknown_tenant;
  }
  trace.events = result.events;
  trace.replayed = result.events_replayed;
  trace.wheel = result.wheel;
  trace.cell_ns = cell.finish();
  return result;
}

std::string fig4_fingerprint(const Fig4Result& r) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "small %.17g %.17g %zu %zu %.17g; large %.17g %zu %zu %.17g; "
      "all %.17g %zu; edf %.17g; drops %llu; events %llu; "
      "wheel %llu %llu %llu %llu %llu %llu; replayed %llu",
      r.mean_small_ms, r.p99_small_ms, r.small_flows, r.small_incomplete,
      r.mean_small_lb_ms, r.mean_large_ms, r.large_flows, r.large_incomplete,
      r.mean_large_lb_ms, r.mean_all_ms, r.all_flows, r.edf_deadline_met,
      static_cast<unsigned long long>(r.drops),
      static_cast<unsigned long long>(r.events),
      static_cast<unsigned long long>(r.wheel.scheduled_wheel),
      static_cast<unsigned long long>(r.wheel.scheduled_heap),
      static_cast<unsigned long long>(r.wheel.migrated_from_heap),
      static_cast<unsigned long long>(r.wheel.migrated_wheel_levels),
      static_cast<unsigned long long>(r.wheel.rotations),
      static_cast<unsigned long long>(r.wheel.peak_live),
      static_cast<unsigned long long>(r.events_replayed));
  return buf;
}

}  // namespace qvb
