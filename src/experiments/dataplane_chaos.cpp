#include "experiments/dataplane_chaos.hpp"

#include <algorithm>

#include "obs/json_writer.hpp"
#include "obs/obs.hpp"
#include "util/random.hpp"

namespace qv::experiments {

namespace {

/// Flatten a run's books into one global-port-ordered vector so two
/// runs compare with a single operator== sweep.
std::vector<dataplane::PortBook> flat_books(
    const dataplane::DataplaneResult& r) {
  std::vector<dataplane::PortBook> books;
  for (const auto& shard : r.shards) {
    books.insert(books.end(), shard.ports.begin(), shard.ports.end());
  }
  return books;
}

/// The injected schedule for one (kind, seed) cell. Every choice
/// derives from the seed so a failing cell replays from its summary
/// line alone.
netsim::FaultPlan make_fault_plan(DataplaneFaultKind kind, std::uint64_t seed,
                                  const dataplane::DataplaneConfig& base) {
  if (kind == DataplaneFaultKind::kRandom) {
    dataplane::RandomDataplaneFaultConfig cfg;
    // Keep poisoned seqs inside the emitted stream so corruption cells
    // exercise quarantine instead of silently missing.
    cfg.max_seq = base.packets_per_port * 3 / 4;
    return dataplane::random_dataplane_fault_plan(seed, base.shards,
                                                  base.ports_per_shard, cfg);
  }
  Rng rng(SplitMix64(seed ^ 0xdc5a0c0de0000001ull).next());
  const auto burst = static_cast<std::uint64_t>(rng.next_in(4, 48));
  netsim::FaultPlan plan;
  switch (kind) {
    case DataplaneFaultKind::kStall:
      // Wedge cap far past the watchdog deadline: the cell only ends
      // quickly if detection actually works.
      for (std::size_t s = 0; s < base.shards; ++s) {
        plan.worker_stall(s, burst + s, seconds(2));
      }
      break;
    case DataplaneFaultKind::kCrash:
      for (std::size_t s = 0; s < base.shards; ++s) {
        plan.worker_crash(s, burst + s);
        plan.worker_crash(s, burst + s + 9);  // recover, then crash again
      }
      break;
    case DataplaneFaultKind::kPoison: {
      const std::size_t ports = base.shards * base.ports_per_shard;
      for (int i = 0; i < 2; ++i) {
        const auto port = static_cast<std::size_t>(
            rng.next_below(static_cast<std::uint64_t>(ports)));
        const auto seq = static_cast<std::uint64_t>(rng.next_in(
            64, static_cast<std::int64_t>(base.packets_per_port) - 64));
        plan.descriptor_corrupt(port, seq);
      }
      break;
    }
    case DataplaneFaultKind::kDesync:
      for (std::size_t s = 0; s < base.shards; ++s) {
        plan.ring_desync(s, burst + s, 8);
      }
      break;
    case DataplaneFaultKind::kRandom:
      break;  // handled above
  }
  return plan;
}

bool kind_activity(DataplaneFaultKind kind, const DataplaneChaosResult& r) {
  switch (kind) {
    case DataplaneFaultKind::kStall:
      return r.stalls >= 1 && r.watchdog_detects >= 1;
    case DataplaneFaultKind::kCrash:
      return r.crashes >= 1 && r.restores >= 1;
    case DataplaneFaultKind::kPoison:
      return r.quarantined >= 1;
    case DataplaneFaultKind::kDesync:
      return r.desyncs >= 1;
    case DataplaneFaultKind::kRandom:
      return r.restores >= 1;
  }
  return false;
}

/// Stall and crash recoveries replay the uncommitted ring region, so
/// the faulted run must land on the fault-free books exactly. Poison
/// removes packets from the stream, desync drains it, and random mixes
/// all four — there balance + bounded loss are the contract instead.
bool is_replay_kind(DataplaneFaultKind kind) {
  return kind == DataplaneFaultKind::kStall ||
         kind == DataplaneFaultKind::kCrash;
}

/// The recovery episodes on the `dataplane` category (see the header),
/// in wall-clock (steady-clock) ns rebased so the first fault is t=0.
void trace_recoveries(const DataplaneChaosResult& r, obs::Tracer& tracer) {
  std::int64_t base_ns = 0;
  for (const auto& rec : r.recoveries) {
    if (base_ns == 0 || rec.start_ns < base_ns) base_ns = rec.start_ns;
  }
  for (const auto& rec : r.recoveries) {
    const auto lane = static_cast<std::uint32_t>(rec.shard);
    tracer.set_thread_name(lane, "shard" + std::to_string(rec.shard));
    tracer.complete(obs::TraceCategory::kDataplane,
                    tracer.intern(std::string("recover:") +
                                  dataplane::recovery_cause_name(rec.cause)),
                    rec.start_ns - base_ns, rec.restore_ns, lane,
                    {{"at_burst", rec.at_burst},
                     {"lost", rec.lost},
                     {"drained", rec.drained ? 1u : 0u}});
  }
  for (const auto& q : r.quarantine) {
    // The verdict lands at the end of that shard's LAST poison restore
    // (the restore that tipped the packet over quarantine_after).
    TimeNs ts = 0;
    for (const auto& rec : r.recoveries) {
      if (rec.shard == q.shard &&
          rec.cause == dataplane::RecoveryRecord::Cause::kPoison) {
        ts = rec.start_ns - base_ns + rec.restore_ns;
      }
    }
    tracer.instant(obs::TraceCategory::kDataplane, "quarantine", ts,
                   static_cast<std::uint32_t>(q.shard),
                   {{"port", q.port},
                    {"seq", q.seq},
                    {"tenant", q.tenant},
                    {"faults", static_cast<std::uint64_t>(q.faults)}});
  }
}

}  // namespace

const char* dataplane_fault_kind_slug(DataplaneFaultKind k) {
  switch (k) {
    case DataplaneFaultKind::kStall: return "stall";
    case DataplaneFaultKind::kCrash: return "crash";
    case DataplaneFaultKind::kPoison: return "poison";
    case DataplaneFaultKind::kDesync: return "desync";
    case DataplaneFaultKind::kRandom: return "random";
  }
  return "unknown";
}

std::vector<DataplaneFaultKind> dataplane_all_fault_kinds() {
  return {DataplaneFaultKind::kStall, DataplaneFaultKind::kCrash,
          DataplaneFaultKind::kPoison, DataplaneFaultKind::kDesync,
          DataplaneFaultKind::kRandom};
}

dataplane::DataplaneConfig dataplane_chaos_base() {
  dataplane::DataplaneConfig config;
  config.shards = 2;
  config.ports_per_shard = 2;
  config.packets_per_port = 4000;
  config.batch = 16;
  config.ring_capacity = 256;
  config.service_depth = 64;
  config.tenants = 4;
  // Fast watchdog: a production 20ms deadline would make every stall
  // cell idle for most of its wall time.
  config.supervision.heartbeat_deadline_ns = milliseconds(5);
  config.supervision.watchdog_poll_ns = microseconds(500);
  config.supervision.checkpoint_interval_bursts = 8;
  return config;
}

DataplaneChaosResult run_dataplane_chaos(const DataplaneChaosConfig& config) {
  // Reference runs: the unsupervised baseline and the supervised
  // fault-free pipeline must produce byte-identical books.
  dataplane::DataplaneConfig plain = config.base;
  plain.seed = config.seed;
  plain.supervision.enabled = false;
  plain.fault_plan = {};
  const auto baseline = run_dataplane(plain);

  dataplane::DataplaneConfig clean = plain;
  clean.supervision.enabled = true;
  const auto supervised = run_dataplane(clean);

  dataplane::DataplaneConfig faulted = clean;
  faulted.fault_plan = make_fault_plan(config.kind, config.seed, config.base);
  const auto chaotic = run_dataplane(faulted);

  DataplaneChaosResult out;
  const dataplane::PortBook total = chaotic.book();
  out.generated = total.generated;
  out.processed = total.processed;
  out.quarantined = total.quarantined;
  out.lost_in_flight = total.lost_in_flight;
  const dataplane::SupervisionStats sup = chaotic.supervision();
  out.checkpoints = sup.checkpoints;
  out.restores = sup.restores;
  out.stalls = sup.stalls;
  out.crashes = sup.crashes;
  out.poison_faults = sup.poison_faults;
  out.desyncs = sup.desyncs;
  out.watchdog_detects = sup.watchdog_detects;
  out.loss_bound = config.base.ring_capacity + config.base.batch;

  std::uint64_t itemized = 0;
  for (const auto& shard : chaotic.shards) {
    out.recoveries.insert(out.recoveries.end(), shard.recoveries.begin(),
                          shard.recoveries.end());
    out.quarantine.insert(out.quarantine.end(), shard.quarantine.begin(),
                          shard.quarantine.end());
  }
  for (const auto& rec : out.recoveries) {
    out.max_restore_ns = std::max(out.max_restore_ns, rec.restore_ns);
    out.max_lost_per_recovery = std::max(out.max_lost_per_recovery, rec.lost);
    itemized += rec.lost;
  }
  out.recovery_count = out.recoveries.size();

  out.balanced = chaotic.balanced;
  out.faultfree_identical = flat_books(supervised) == flat_books(baseline);
  out.replay_identical = !is_replay_kind(config.kind) ||
                         flat_books(chaotic) == flat_books(baseline);
  // Every lost packet is itemized by exactly one recovery, and no
  // recovery discards more than one full ring plus the burst in hand.
  out.loss_bounded = out.max_lost_per_recovery <= out.loss_bound &&
                     itemized == out.lost_in_flight;
  out.recovery_bounded = out.max_restore_ns <= config.max_recovery_ns;
  out.activity_seen = kind_activity(config.kind, out);
  out.ok = out.balanced && out.faultfree_identical && out.replay_identical &&
           out.loss_bounded && out.recovery_bounded && out.activity_seen;

  if (config.obs != nullptr) {
    chaotic.export_metrics(config.obs->registry);
    if (config.obs->tracer.enabled(obs::TraceCategory::kDataplane)) {
      trace_recoveries(out, config.obs->tracer);
    }
  }
  return out;
}

std::vector<SweepCell> run_dataplane_chaos_sweep(
    const DataplaneChaosSweepConfig& sweep) {
  const GridSpec spec{.experiment = "dpchaos",
                      .stem = "dpchaos",
                      .axis_key = "kind",
                      .axis = slugs(sweep.kinds, dataplane_fault_kind_slug),
                      .seeds = sweep.seeds,
                      .out_dir = sweep.out_dir,
                      .jobs = sweep.jobs};
  return run_grid(spec, [&sweep](const GridPoint& p, SweepCell& cell,
                                 obs::Observability& obs,
                                 obs::JsonWriter& row) {
    DataplaneChaosConfig config = sweep.base;
    config.kind = sweep.kinds[p.axis];
    config.seed = p.seed;
    config.obs = &obs;
    const DataplaneChaosResult r = run_dataplane_chaos(config);
    cell.ok = r.ok;

    std::string& s = cell.summary;
    appendf(s, "dpchaos %s (seed %llu)\n",
            dataplane_fault_kind_slug(config.kind),
            static_cast<unsigned long long>(p.seed));
    appendf(s,
            "  generated %llu = processed %llu + quarantined %llu + "
            "lost %llu (balanced: %s)\n",
            static_cast<unsigned long long>(r.generated),
            static_cast<unsigned long long>(r.processed),
            static_cast<unsigned long long>(r.quarantined),
            static_cast<unsigned long long>(r.lost_in_flight),
            r.balanced ? "yes" : "NO");
    appendf(s,
            "  restores %llu (stall %llu, crash %llu, poison %llu, "
            "desync %llu), watchdog detects %llu, checkpoints %llu\n",
            static_cast<unsigned long long>(r.restores),
            static_cast<unsigned long long>(r.stalls),
            static_cast<unsigned long long>(r.crashes),
            static_cast<unsigned long long>(r.poison_faults),
            static_cast<unsigned long long>(r.desyncs),
            static_cast<unsigned long long>(r.watchdog_detects),
            static_cast<unsigned long long>(r.checkpoints));
    appendf(s,
            "  fault-free identical: %s, replay identical: %s, loss "
            "%llu/%llu per recovery (bounded: %s), slowest restore "
            "%.3f ms (bounded: %s), activity: %s\n",
            r.faultfree_identical ? "yes" : "NO",
            r.replay_identical ? "yes" : "NO",
            static_cast<unsigned long long>(r.max_lost_per_recovery),
            static_cast<unsigned long long>(r.loss_bound),
            r.loss_bounded ? "yes" : "NO",
            static_cast<double>(r.max_restore_ns) / 1e6,
            r.recovery_bounded ? "yes" : "NO",
            r.activity_seen ? "yes" : "NO");
    appendf(s, "  artifacts: %s_{metrics.json,trace.json}\n",
            cell.stem.c_str());

    row.key("generated").value(r.generated);
    row.key("processed").value(r.processed);
    row.key("quarantined").value(r.quarantined);
    row.key("lost_in_flight").value(r.lost_in_flight);
    row.key("checkpoints").value(r.checkpoints);
    row.key("restores").value(r.restores);
    row.key("watchdog_detects").value(r.watchdog_detects);
    row.key("recoveries").value(r.recovery_count);
    row.key("max_lost_per_recovery").value(r.max_lost_per_recovery);
    row.key("loss_bound").value(r.loss_bound);
    row.key("balanced").value(r.balanced);
    row.key("faultfree_identical").value(r.faultfree_identical);
    row.key("replay_identical").value(r.replay_identical);
    row.key("loss_bounded").value(r.loss_bounded);
    row.key("recovery_bounded").value(r.recovery_bounded);
    row.key("activity_seen").value(r.activity_seen);
    row.key("ok").value(r.ok);
  });
}

}  // namespace qv::experiments
