#include "experiments/fig2.hpp"

#include <cassert>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "experiments/obs_wiring.hpp"
#include "netsim/network.hpp"
#include "netsim/topology.hpp"
#include "obs/obs.hpp"
#include "qvisor/backend.hpp"
#include "qvisor/qvisor.hpp"
#include "qvisor/runtime.hpp"
#include "sched/fifo.hpp"
#include "sched/pifo.hpp"
#include "sched/rank/edf.hpp"
#include "sched/rank/pfabric.hpp"
#include "sched/rank/stfq.hpp"
#include "telemetry/fct_tracker.hpp"
#include "telemetry/trace_io.hpp"
#include "trafficgen/cbr_source.hpp"
#include "trafficgen/host_source.hpp"
#include "workload/arrivals.hpp"
#include "workload/cdf.hpp"

namespace qv::experiments {

namespace {

constexpr TenantId kInteractive = 1;
constexpr TenantId kDeadline = 2;
constexpr TenantId kBackground = 3;

}  // namespace

const char* fig2_scheme_name(Fig2Scheme scheme) {
  switch (scheme) {
    case Fig2Scheme::kFifo:
      return "FIFO";
    case Fig2Scheme::kPifoNaive:
      return "PIFO (naive ranks)";
    case Fig2Scheme::kQvisor:
      return "QVISOR (static)";
    case Fig2Scheme::kQvisorAdapt:
      return "QVISOR (+runtime)";
  }
  return "?";
}

Fig2Result run_fig2(const Fig2Config& config) {
  assert(config.hosts >= 5);
  netsim::Simulator sim;
  sim.set_simcore(config.per_event_simcore
                      ? netsim::Simulator::SimCore::kPerEventReference
                      : netsim::Simulator::SimCore::kOverhauled);

  // --- tenant rank functions -------------------------------------------
  const std::int64_t max_flow = 200'000;  // interactive flows <= 200 KB
  auto pfabric_ranker = std::make_shared<sched::PFabricRanker>(
      1, static_cast<Rank>(max_flow + 1));
  auto edf_ranker = std::make_shared<sched::EdfRanker>(
      microseconds(1),
      static_cast<Rank>(config.cbr_deadline_slack / microseconds(1) + 1));
  auto fq_ranker = std::make_shared<sched::StfqRanker>(1, 1 << 16);

  const bool uses_qvisor = config.scheme == Fig2Scheme::kQvisor ||
                           config.scheme == Fig2Scheme::kQvisorAdapt;
  std::unique_ptr<qvisor::Hypervisor> hv;
  if (uses_qvisor) {
    std::vector<qvisor::TenantSpec> tenants;
    tenants.push_back(qvisor::TenantSpec::make(
        kInteractive, "interactive", pfabric_ranker));
    tenants.push_back(
        qvisor::TenantSpec::make(kDeadline, "deadline", edf_ranker));
    tenants.push_back(
        qvisor::TenantSpec::make(kBackground, "background", fq_ranker));
    auto parsed =
        qvisor::parse_policy("interactive + deadline >> background");
    assert(parsed.ok());
    hv = std::make_unique<qvisor::Hypervisor>(
        std::move(tenants), std::move(*parsed.policy),
        std::make_shared<qvisor::PifoBackend>());
    auto compiled = hv->compile();
    if (!compiled.ok) {
      throw std::runtime_error("fig2: compile failed: " + compiled.error);
    }
  }

  netsim::SchedulerFactory factory =
      [&](const netsim::PortContext&) -> std::unique_ptr<sched::Scheduler> {
    switch (config.scheme) {
      case Fig2Scheme::kFifo:
        return std::make_unique<sched::FifoQueue>();
      case Fig2Scheme::kPifoNaive:
        return std::make_unique<sched::PifoQueue>();
      default:
        return hv->make_port_scheduler();
    }
  };

  netsim::Network net(sim);
  auto topo = netsim::build_single_switch(net, config.hosts, config.rate,
                                          microseconds(1), factory);

  // --- telemetry ----------------------------------------------------------
  // Everything converges on host 0 (the congested egress of Fig. 2).
  telemetry::FctTracker fct;
  telemetry::DeadlineTracker deadlines;
  std::int64_t bg_phase1_bytes = 0;
  std::int64_t bg_phase2_bytes = 0;
  topo.hosts[0]->set_sink([&](const Packet& p) {
    fct.on_packet_delivered(p, sim.now());
    if (p.tenant == kDeadline) deadlines.on_packet_delivered(p, sim.now());
    if (p.tenant == kBackground) {
      if (sim.now() >= config.warmup && sim.now() < config.t1) {
        bg_phase1_bytes += p.size_bytes;
      } else if (sim.now() >= config.t1 && sim.now() < config.end) {
        bg_phase2_bytes += p.size_bytes;
      }
    }
  });

  // --- T1: interactive short flows, hosts 1..3 -> host 0, until t1 ------
  std::vector<std::unique_ptr<trafficgen::HostSource>> interactive;
  for (std::size_t h = 1; h <= 3; ++h) {
    interactive.push_back(std::make_unique<trafficgen::HostSource>(
        sim, *topo.hosts[h], kInteractive, pfabric_ranker, config.rate));
  }
  const workload::Cdf cdf = workload::web_search_cdf(max_flow);
  workload::ArrivalConfig arrivals_cfg;
  arrivals_cfg.load = config.interactive_load / 3.0;  // split over 3 hosts
  arrivals_cfg.access_rate = config.rate;
  arrivals_cfg.num_hosts = 3;
  arrivals_cfg.start = 0;
  arrivals_cfg.end = config.t1;
  arrivals_cfg.seed = config.seed;
  FlowId next_flow = 1000;
  for (const auto& arrival :
       workload::generate_poisson_arrivals(arrivals_cfg, cdf)) {
    const FlowId flow = next_flow++;
    sim.at(arrival.at, [&, flow, arrival] {
      fct.on_flow_start(flow, kInteractive, arrival.size_bytes, sim.now());
      interactive[arrival.src_host]->start_flow(
          flow, topo.hosts[0]->id(), arrival.size_bytes);
    });
  }

  // --- T2: deadline CBR, host 4 -> host 0, until t1 ----------------------
  trafficgen::CbrSource cbr(sim, *topo.hosts[4], topo.hosts[0]->id(),
                            /*flow=*/1, kDeadline, edf_ranker,
                            config.cbr_rate, config.cbr_deadline_slack,
                            /*start=*/0, /*stop=*/config.t1);

  // --- T3: background bulk, last host -> host 0, whole run ---------------
  trafficgen::HostSource bulk(sim, *topo.hosts[config.hosts - 1],
                              kBackground, fq_ranker, config.rate);
  // Back-to-back bulk flows: start the next when the previous finishes
  // sending, so the background tenant is always backlogged.
  FlowId bulk_flow = 1;
  std::function<void()> start_bulk = [&] {
    if (sim.now() >= config.end) return;
    bulk.start_flow(500'000 + bulk_flow++, topo.hosts[0]->id(),
                    config.bulk_flow_bytes);
  };
  bulk.set_on_flow_sent([&](FlowId, TimeNs) { start_bulk(); });
  sim.at(0, [&] { start_bulk(); });

  // --- runtime controller --------------------------------------------------
  std::optional<qvisor::HypervisorTarget> target;
  std::optional<qvisor::RuntimeController> controller;
  if (config.scheme == Fig2Scheme::kQvisorAdapt) {
    qvisor::RuntimeConfig rc;
    // The window must cover the interactive tenant's arrival gaps, or
    // the controller thrashes (deactivating a merely-bursty tenant
    // demotes its in-flight traffic to best effort — see the runtime
    // test suite for the pathology).
    rc.activity_window = milliseconds(10);
    rc.min_reconfig_interval = milliseconds(2);
    controller.emplace(target.emplace(*hv), rc);
    for (TimeNs t = milliseconds(1); t < config.end; t += milliseconds(1)) {
      sim.at(t, [&, t] { controller->tick(t); });
    }
  }

  // --- observability -------------------------------------------------------
  if (config.obs != nullptr) {
    wire_network_obs(net, *config.obs, config.end);
    if (hv) wire_hypervisor_obs(*hv, *config.obs);
    if (controller) controller->set_tracer(&config.obs->tracer);
  }

  sim.run_until(config.end);

  // --- collect ----------------------------------------------------------------
  Fig2Result result;
  telemetry::FlowFilter phase1;
  phase1.tenant = kInteractive;
  phase1.started_from = config.warmup;
  phase1.started_to = config.t1 - milliseconds(5);  // room to finish
  const Sample fcts = fct.fct_lower_bound_ms(phase1, config.end);
  result.interactive_mean_fct_ms = fcts.mean();
  result.interactive_p99_fct_ms = fcts.p99();
  result.interactive_flows = fcts.count();
  result.deadline_met = deadlines.met_fraction();
  const double phase1_secs = to_seconds(config.t1 - config.warmup);
  const double phase2_secs = to_seconds(config.end - config.t1);
  result.background_phase1_gbps =
      static_cast<double>(bg_phase1_bytes) * 8.0 / phase1_secs / 1e9;
  result.background_phase2_gbps =
      static_cast<double>(bg_phase2_bytes) * 8.0 / phase2_secs / 1e9;
  if (controller) result.adaptations = controller->adaptations();

  if (!config.flow_csv.empty()) {
    telemetry::save_flow_csv(config.flow_csv, fct);
  }

  // Export + freeze LAST, while the schedulers/hypervisor the registry
  // views point at are still alive; after freeze() the registry is
  // self-contained and outlives this function.
  if (config.obs != nullptr) {
    obs::Registry& reg = config.obs->registry;
    export_network_metrics(net, reg);
    if (hv) hv->export_metrics(reg, "qvisor");
    if (controller) controller->export_metrics(reg, "runtime");
    reg.counter("sim.events_processed").inc(sim.events_processed());
    reg.set_gauge("result.interactive_mean_fct_ms",
                  result.interactive_mean_fct_ms);
    reg.set_gauge("result.interactive_p99_fct_ms",
                  result.interactive_p99_fct_ms);
    reg.set_gauge("result.deadline_met", result.deadline_met);
    reg.set_gauge("result.background_phase1_gbps",
                  result.background_phase1_gbps);
    reg.set_gauge("result.background_phase2_gbps",
                  result.background_phase2_gbps);
    reg.set_gauge("result.adaptations",
                  static_cast<double>(result.adaptations));
    reg.freeze();
  }
  return result;
}

}  // namespace qv::experiments
