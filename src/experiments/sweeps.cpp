#include "experiments/sweeps.hpp"

#include "obs/json_writer.hpp"

namespace qv::experiments {

// --- slugs ----------------------------------------------------------------

const char* fig2_scheme_slug(Fig2Scheme s) {
  switch (s) {
    case Fig2Scheme::kFifo: return "fifo";
    case Fig2Scheme::kPifoNaive: return "pifo";
    case Fig2Scheme::kQvisor: return "qvisor";
    case Fig2Scheme::kQvisorAdapt: return "qvisor-adapt";
  }
  return "unknown";
}

std::vector<Fig2Scheme> fig2_all_schemes() {
  return {Fig2Scheme::kFifo, Fig2Scheme::kPifoNaive, Fig2Scheme::kQvisor,
          Fig2Scheme::kQvisorAdapt};
}

const char* fig4_scheme_slug(Fig4Scheme s) {
  switch (s) {
    case Fig4Scheme::kFifoBoth: return "fifo";
    case Fig4Scheme::kPifoNaive: return "pifo";
    case Fig4Scheme::kPifoIdeal: return "pifo-ideal";
    case Fig4Scheme::kQvisorEdfOverPfabric: return "qvisor-edf";
    case Fig4Scheme::kQvisorShare: return "qvisor-share";
    case Fig4Scheme::kQvisorPfabricOverEdf: return "qvisor-pfabric";
  }
  return "unknown";
}

std::vector<Fig4Scheme> fig4_all_schemes() {
  return {Fig4Scheme::kFifoBoth,             Fig4Scheme::kPifoNaive,
          Fig4Scheme::kPifoIdeal,            Fig4Scheme::kQvisorEdfOverPfabric,
          Fig4Scheme::kQvisorShare,          Fig4Scheme::kQvisorPfabricOverEdf};
}

// --- fig2 -----------------------------------------------------------------

std::vector<SweepCell> run_fig2_sweep(const Fig2SweepConfig& sweep) {
  const GridSpec spec{.experiment = "fig2",
                      .stem = "fig2",
                      .axis_key = "scheme",
                      .axis = slugs(sweep.schemes, fig2_scheme_slug),
                      .seeds = sweep.seeds,
                      .out_dir = sweep.out_dir,
                      .jobs = sweep.jobs,
                      .obs = sweep.obs};
  return run_grid(spec, [&sweep](const GridPoint& p, SweepCell& cell,
                                 obs::Observability& obs,
                                 obs::JsonWriter& row) {
    const Fig2Scheme scheme = sweep.schemes[p.axis];
    Fig2Config config = sweep.base;
    config.scheme = scheme;
    config.seed = p.seed;
    config.obs = &obs;
    config.flow_csv = cell.stem + "_flows.csv";
    const Fig2Result r = run_fig2(config);

    std::string& s = cell.summary;
    appendf(s, "fig2 %s (seed %llu)\n", fig2_scheme_name(scheme),
            static_cast<unsigned long long>(p.seed));
    appendf(s, "  interactive: mean FCT %.3f ms, p99 %.3f ms (%zu flows)\n",
            r.interactive_mean_fct_ms, r.interactive_p99_fct_ms,
            r.interactive_flows);
    appendf(s, "  deadline met: %.3f\n", r.deadline_met);
    appendf(s, "  background: phase1 %.3f Gb/s, phase2 %.3f Gb/s\n",
            r.background_phase1_gbps, r.background_phase2_gbps);
    appendf(s, "  adaptations: %llu\n",
            static_cast<unsigned long long>(r.adaptations));
    appendf(s, "  artifacts: %s_{flows.csv,metrics.json,trace.json}\n",
            cell.stem.c_str());

    row.key("interactive_mean_fct_ms").value(r.interactive_mean_fct_ms);
    row.key("interactive_p99_fct_ms").value(r.interactive_p99_fct_ms);
    row.key("interactive_flows")
        .value(static_cast<std::uint64_t>(r.interactive_flows));
    row.key("deadline_met").value(r.deadline_met);
    row.key("background_phase1_gbps").value(r.background_phase1_gbps);
    row.key("background_phase2_gbps").value(r.background_phase2_gbps);
    row.key("adaptations").value(r.adaptations);
  });
}

// --- fig4 -----------------------------------------------------------------

std::vector<SweepCell> run_fig4_sweep(const Fig4SweepConfig& sweep) {
  const GridSpec spec{.experiment = "fig4",
                      .stem = "fig4",
                      .axis_key = "scheme",
                      .axis = slugs(sweep.schemes, fig4_scheme_slug),
                      .loads = sweep.loads,
                      .seeds = sweep.seeds,
                      .out_dir = sweep.out_dir,
                      .jobs = sweep.jobs,
                      .obs = sweep.obs};
  return run_grid(spec, [&sweep](const GridPoint& p, SweepCell& cell,
                                 obs::Observability& obs,
                                 obs::JsonWriter& row) {
    const Fig4Scheme scheme = sweep.schemes[p.axis];
    Fig4Config config = sweep.base;
    config.scheme = scheme;
    config.load = p.load;
    config.seed = p.seed;
    config.obs = &obs;
    config.flow_csv = cell.stem + "_flows.csv";
    const Fig4Result r = run_fig4(config);

    std::string& s = cell.summary;
    appendf(s, "fig4 %s, load %.2f (seed %llu)\n", fig4_scheme_name(scheme),
            p.load, static_cast<unsigned long long>(p.seed));
    appendf(s, "  small flows: mean %.3f ms (lb %.3f), p99 %.3f ms (%zu)\n",
            r.mean_small_ms, r.mean_small_lb_ms, r.p99_small_ms,
            r.small_flows);
    appendf(s, "  large flows: mean %.3f ms (lb %.3f) (%zu)\n",
            r.mean_large_ms, r.mean_large_lb_ms, r.large_flows);
    appendf(s, "  EDF deadline met: %.3f, drops %llu, events %llu\n",
            r.edf_deadline_met, static_cast<unsigned long long>(r.drops),
            static_cast<unsigned long long>(r.events));
    appendf(s, "  artifacts: %s_{flows.csv,metrics.json,trace.json}\n",
            cell.stem.c_str());

    row.key("mean_small_ms").value(r.mean_small_ms);
    row.key("mean_small_lb_ms").value(r.mean_small_lb_ms);
    row.key("p99_small_ms").value(r.p99_small_ms);
    row.key("small_flows").value(static_cast<std::uint64_t>(r.small_flows));
    row.key("mean_large_ms").value(r.mean_large_ms);
    row.key("mean_large_lb_ms").value(r.mean_large_lb_ms);
    row.key("large_flows").value(static_cast<std::uint64_t>(r.large_flows));
    row.key("edf_deadline_met").value(r.edf_deadline_met);
    row.key("drops").value(r.drops);
    row.key("events").value(r.events);
  });
}

// --- chaos ----------------------------------------------------------------

std::vector<SweepCell> run_chaos_sweep(const ChaosSweepConfig& sweep) {
  const GridSpec spec{.experiment = "chaos",
                      .stem = "chaos",
                      .seeds = sweep.seeds,
                      .out_dir = sweep.out_dir,
                      .jobs = sweep.jobs,
                      .obs = sweep.obs};
  return run_grid(spec, [&sweep](const GridPoint& p, SweepCell& cell,
                                 obs::Observability& obs,
                                 obs::JsonWriter& row) {
    ChaosConfig config = sweep.base;
    config.seed = p.seed;
    config.obs = &obs;
    const ChaosResult r = run_chaos(config);
    cell.ok = r.conserved && r.epoch_mismatches == 0 && r.epochs_consistent &&
              (!config.control_faults ||
               (r.rollbacks > 0 && r.retries > 0 && r.reconciles > 0));

    std::string& s = cell.summary;
    appendf(s, "chaos (seed %llu)\n", static_cast<unsigned long long>(p.seed));
    appendf(s,
            "  offered %llu + injected %llu = delivered %llu + "
            "queue-drop %llu + fault-drop %llu + buffered %llu "
            "(conserved: %s)\n",
            static_cast<unsigned long long>(r.offered_pkts),
            static_cast<unsigned long long>(r.injected_pkts),
            static_cast<unsigned long long>(r.delivered_pkts),
            static_cast<unsigned long long>(r.queue_dropped_pkts),
            static_cast<unsigned long long>(r.fault_dropped_pkts),
            static_cast<unsigned long long>(r.buffered_pkts),
            r.conserved ? "yes" : "NO");
    appendf(s,
            "  link downs/ups %llu/%llu, epoch mismatches %llu, "
            "epochs %s\n",
            static_cast<unsigned long long>(r.link_downs),
            static_cast<unsigned long long>(r.link_ups),
            static_cast<unsigned long long>(r.epoch_mismatches),
            r.epochs_consistent ? "consistent" : "INCONSISTENT");
    appendf(s,
            "  adaptations %llu, retries %llu, rollbacks %llu, "
            "reconciles %llu, degraded %llu/%llu\n",
            static_cast<unsigned long long>(r.adaptations),
            static_cast<unsigned long long>(r.retries),
            static_cast<unsigned long long>(r.rollbacks),
            static_cast<unsigned long long>(r.reconciles),
            static_cast<unsigned long long>(r.degraded_entries),
            static_cast<unsigned long long>(r.recoveries));
    appendf(s, "  plan: %s\n", r.plan_fingerprint.c_str());
    appendf(s, "  artifacts: %s_{metrics.json,trace.json}\n",
            cell.stem.c_str());

    row.key("offered_pkts").value(r.offered_pkts);
    row.key("injected_pkts").value(r.injected_pkts);
    row.key("delivered_pkts").value(r.delivered_pkts);
    row.key("queue_dropped_pkts").value(r.queue_dropped_pkts);
    row.key("fault_dropped_pkts").value(r.fault_dropped_pkts);
    row.key("buffered_pkts").value(r.buffered_pkts);
    row.key("conserved").value(r.conserved);
    row.key("epoch_mismatches").value(r.epoch_mismatches);
    row.key("epochs_consistent").value(r.epochs_consistent);
    row.key("link_downs").value(r.link_downs);
    row.key("adaptations").value(r.adaptations);
    row.key("retries").value(r.retries);
    row.key("rollbacks").value(r.rollbacks);
    row.key("reconciles").value(r.reconciles);
    row.key("degraded_entries").value(r.degraded_entries);
    row.key("recoveries").value(r.recoveries);
    row.key("committed_epoch").value(r.committed_epoch);
    row.key("plan_fingerprint").value(r.plan_fingerprint);
    row.key("ok").value(cell.ok);
  });
}

// --- overload -------------------------------------------------------------

namespace {

void append_overload_victim(std::string& s, const char* name,
                            const OverloadTenantStats& b,
                            const OverloadTenantStats& a) {
  appendf(s,
          "  %s: delivered %llu -> %llu bytes (%.1f%%), p99 %lld -> "
          "%lld ns\n",
          name, static_cast<unsigned long long>(b.delivered_bytes),
          static_cast<unsigned long long>(a.delivered_bytes),
          b.delivered_bytes == 0
              ? 0.0
              : 100.0 * static_cast<double>(a.delivered_bytes) /
                    static_cast<double>(b.delivered_bytes),
          static_cast<long long>(b.p99_latency),
          static_cast<long long>(a.p99_latency));
}

}  // namespace

std::vector<SweepCell> run_overload_sweep(const OverloadSweepConfig& sweep) {
  const GridSpec spec{
      .experiment = "overload",
      .stem = "overload",
      .axis_key = "mode",
      .axis = slugs(sweep.modes, trafficgen::adversary_mode_name),
      .seeds = sweep.seeds,
      .out_dir = sweep.out_dir,
      .jobs = sweep.jobs,
      .obs = sweep.obs};
  return run_grid(spec, [&sweep](const GridPoint& p, SweepCell& cell,
                                 obs::Observability& obs,
                                 obs::JsonWriter& row) {
    OverloadConfig config = sweep.base;
    config.mode = sweep.modes[p.axis];
    config.seed = p.seed;
    config.obs = &obs;
    const OverloadResult r = run_overload(config);
    cell.ok = r.ok;

    const OverloadRun& atk = r.attack;
    const OverloadRun& base = r.baseline;
    std::string& s = cell.summary;
    appendf(s, "overload (mode %s, seed %llu, guard %s)\n",
            trafficgen::adversary_mode_name(config.mode),
            static_cast<unsigned long long>(p.seed),
            config.guard ? "on" : "off");
    append_overload_victim(s, "gold  ", base.gold, atk.gold);
    append_overload_victim(s, "silver", base.silver, atk.silver);
    appendf(s,
            "  attacker: offered %llu bytes, admitted %llu bytes, "
            "drops rate/share/quantile %llu/%llu/%llu\n",
            static_cast<unsigned long long>(atk.attacker.offered_bytes),
            static_cast<unsigned long long>(atk.attacker_admitted_bytes),
            static_cast<unsigned long long>(atk.guard_rate_dropped),
            static_cast<unsigned long long>(atk.guard_share_dropped),
            static_cast<unsigned long long>(atk.guard_quantile_dropped));
    appendf(s,
            "  quarantines %llu, unquarantines %llu, spill tracked "
            "max %zu (evictions %llu), monitor tracked max %zu "
            "(untracked %llu)\n",
            static_cast<unsigned long long>(atk.quarantines),
            static_cast<unsigned long long>(atk.unquarantines),
            atk.max_spill_tracked,
            static_cast<unsigned long long>(atk.spill_evictions),
            atk.max_tracked_tenants,
            static_cast<unsigned long long>(atk.untracked_observations));
    appendf(s,
            "  checks: conserved %s/%s, guard-balanced %s, "
            "accounting %s, throughput %s, latency %s, throttled %s, "
            "quarantined %s, bounded %s\n",
            base.conserved ? "yes" : "NO", atk.conserved ? "yes" : "NO",
            atk.guard_balanced ? "yes" : "NO",
            atk.accounting_balanced ? "yes" : "NO",
            r.victims_throughput_ok ? "yes" : "NO",
            r.victims_latency_ok ? "yes" : "NO",
            r.attacker_throttled ? "yes" : "NO",
            r.attacker_quarantined ? "yes" : "NO",
            r.state_bounded ? "yes" : "NO");
    appendf(s, "  artifacts: %s_{metrics.json,trace.json}\n",
            cell.stem.c_str());

    row.key("gold_delivered_bytes").value(atk.gold.delivered_bytes);
    row.key("silver_delivered_bytes").value(atk.silver.delivered_bytes);
    row.key("attacker_admitted_bytes").value(atk.attacker_admitted_bytes);
    row.key("guard_rate_dropped").value(atk.guard_rate_dropped);
    row.key("guard_share_dropped").value(atk.guard_share_dropped);
    row.key("guard_quantile_dropped").value(atk.guard_quantile_dropped);
    row.key("quarantines").value(atk.quarantines);
    row.key("victims_throughput_ok").value(r.victims_throughput_ok);
    row.key("victims_latency_ok").value(r.victims_latency_ok);
    row.key("attacker_throttled").value(r.attacker_throttled);
    row.key("attacker_quarantined").value(r.attacker_quarantined);
    row.key("state_bounded").value(r.state_bounded);
    row.key("ok").value(r.ok);
  });
}

}  // namespace qv::experiments
