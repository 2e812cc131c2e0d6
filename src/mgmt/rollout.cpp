#include "mgmt/rollout.hpp"

#include <algorithm>
#include <cmath>

#include "netsim/packet.hpp"
#include "qvisor/qvisor.hpp"
#include "util/random.hpp"

namespace qv::mgmt {
namespace {

void put_u64_bytes(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::uint64_t digest_sequence(const std::vector<std::uint64_t>& values) {
  std::string bytes;
  bytes.reserve(values.size() * 8);
  for (const std::uint64_t v : values) put_u64_bytes(bytes, v);
  return fnv1a(bytes);
}

/// Digest of "plan `pf` on every one of `n` switches" — what
/// fleet_plan_fingerprint() returns for a converged fleet.
std::uint64_t uniform_fleet_digest(std::uint64_t pf, std::size_t n) {
  return digest_sequence(std::vector<std::uint64_t>(n, pf));
}

}  // namespace

std::uint64_t plan_fingerprint(const control::CompiledGroupPlan& plan) {
  std::vector<std::uint64_t> parts = plan.fingerprints;
  parts.push_back(plan.index != nullptr ? plan.index->fingerprint() : 0);
  parts.push_back(plan.group_count());
  return digest_sequence(parts);
}

std::uint64_t fleet_plan_fingerprint(qvisor::Fleet& fleet) {
  std::vector<std::uint64_t> per_switch;
  per_switch.reserve(fleet.switch_count());
  for (std::size_t i = 0; i < fleet.switch_count(); ++i) {
    const control::CompiledGroupPlan* plan =
        fleet.hypervisor(i).group_plan();
    per_switch.push_back(plan != nullptr ? plan_fingerprint(*plan) : 0);
  }
  return digest_sequence(per_switch);
}

RolloutEngine::RolloutEngine(control::ControlPlane& cp, ConfigStore& store,
                             RolloutConfig config)
    : cp_(cp), store_(store), config_(std::move(config)) {
  if (config_.canary == 0) config_.canary = 1;
  if (config_.wave_size == 0) config_.wave_size = 1;
}

void RolloutEngine::trace(const char* name, TimeNs ts, const char* arg_name,
                          std::uint64_t arg) const {
  if (tracer_ != nullptr && tracer_->enabled(obs::TraceCategory::kMgmt)) {
    tracer_->instant(obs::TraceCategory::kMgmt, name, ts, /*tid=*/0, arg_name,
                     arg);
  }
}

std::vector<std::vector<std::size_t>> RolloutEngine::plan_waves() const {
  std::vector<std::vector<std::size_t>> waves;
  const std::size_t n = cp_.fleet().switch_count();
  std::size_t at = 0;
  while (at < n) {
    const std::size_t size =
        waves.empty() ? std::min(config_.canary, n - at)
                      : std::min(config_.wave_size, n - at);
    std::vector<std::size_t> cohort(size);
    for (std::size_t i = 0; i < size; ++i) cohort[i] = at + i;
    waves.push_back(std::move(cohort));
    at += size;
  }
  return waves;
}

std::vector<std::uint32_t> RolloutEngine::victim_tenants() const {
  // Victims come from the LAST-KNOWN-GOOD policy: the tier the operator
  // currently protects. Deriving them from the candidate would let a
  // tier-inverting bad policy redefine its own victims and pass.
  const control::GroupedPolicy* lkg = cp_.current_policy();
  std::vector<std::uint32_t> ids;
  if (lkg == nullptr) return ids;
  std::vector<std::string> names = config_.victim_groups;
  if (names.empty() && !lkg->policy.tiers().empty()) {
    for (const auto& cell : lkg->policy.tiers().front().groups) {
      names.insert(names.end(), cell.tenants.begin(), cell.tenants.end());
    }
  }
  for (const auto& name : names) {
    for (const auto& g : lkg->groups) {
      if (g.name == name && !g.spans.empty()) {
        ids.push_back(g.spans.front().lo);
        break;
      }
    }
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

std::vector<std::uint32_t> RolloutEngine::probe_tenants() const {
  // One representative per LKG group with explicit spans: the probe
  // workload mixes every traffic class the operator declared.
  const control::GroupedPolicy* lkg = cp_.current_policy();
  std::vector<std::uint32_t> ids;
  if (lkg == nullptr) return ids;
  for (const auto& g : lkg->groups) {
    if (!g.spans.empty()) ids.push_back(g.spans.front().lo);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

ProbeResult RolloutEngine::probe_switch(
    std::size_t switch_index) {
  ProbeResult r;
  r.switch_index = switch_index;
  if (probe_fault_ && probe_fault_(switch_index)) {
    r.failure = "probe endpoint unreachable";
    return r;
  }
  const std::vector<std::uint32_t> victims = victim_tenants();
  const std::vector<std::uint32_t> tenants = probe_tenants();
  if (victims.empty() || tenants.empty()) {
    r.failure = "no probe tenants derivable from the deployed policy";
    return r;
  }

  qvisor::Fleet& fleet = cp_.fleet();
  auto port = fleet.make_port_scheduler(switch_index);
  Rng rng(config_.probe.seed ^
          (0x9e3779b97f4a7c15ull * (switch_index + 1)));

  // Burst arrival at virtual time 0, round-robin across tenants so no
  // class wins by arrival order.
  std::uint64_t offered = 0;
  for (std::size_t round = 0; round < config_.probe.packets_per_tenant;
       ++round) {
    for (const std::uint32_t tenant : tenants) {
      Packet p;
      p.flow = (static_cast<std::uint64_t>(tenant) << 32) | round;
      p.seq = static_cast<std::uint32_t>(round);
      p.tenant = tenant;
      p.size_bytes = config_.probe.packet_bytes;
      p.original_rank = static_cast<Rank>(rng.next_below(256));
      p.rank = p.original_rank;
      ++offered;
      port->enqueue(p, /*now=*/0);
    }
  }

  // Virtual line-rate drain: dequeue to empty, advancing a virtual
  // clock by each packet's serialization time.
  const double ns_per_byte =
      8.0e9 / static_cast<double>(config_.probe.line_rate);
  TimeNs clock = 0;
  std::vector<TimeNs> victim_drains;
  std::vector<std::uint32_t> order;  // victim flag per dequeue position
  std::uint64_t dequeued = 0;
  while (auto p = port->dequeue(clock)) {
    clock += static_cast<TimeNs>(
        std::llround(static_cast<double>(p->size_bytes) * ns_per_byte));
    const bool is_victim =
        std::binary_search(victims.begin(), victims.end(), p->tenant);
    order.push_back(is_victim ? 1u : 0u);
    if (is_victim) victim_drains.push_back(clock);
    ++dequeued;
    if (dequeued > offered) break;  // defensive: duplicating scheduler
  }

  // Victim share of the first half of the drain. Under the band layout
  // the compiler gives a healthy plan, protected-tier packets drain
  // first, so all victims land in the first half.
  const std::size_t half = order.size() / 2;
  std::size_t victims_first_half = 0;
  for (std::size_t i = 0; i < half; ++i) victims_first_half += order[i];
  const std::size_t victim_total = victim_drains.size();
  const std::size_t expected = std::min(victim_total, half);
  r.victim_share = expected == 0
                       ? 0.0
                       : static_cast<double>(victims_first_half) /
                             static_cast<double>(expected);

  if (!victim_drains.empty()) {
    // Drain times are recorded in dequeue order, already ascending.
    const std::size_t at = (victim_drains.size() * 99 + 99) / 100;
    r.victim_p99 = victim_drains[std::min(at, victim_drains.size()) - 1];
  }

  const auto& c = port->counters();
  r.balanced = port->empty() && c.enqueued == c.dequeued + c.dropped &&
               c.enqueued + c.dropped >= offered;
  if (auto* qp = dynamic_cast<qvisor::QvisorPort*>(port.get())) {
    r.epoch_mismatches = qp->epoch_mismatches();
  }

  if (victim_total == 0) {
    r.failure = "no victim packets survived to the drain";
  } else if (r.victim_share < config_.slo.min_victim_share) {
    r.failure = "victim share " + std::to_string(r.victim_share) +
                " below SLO " + std::to_string(config_.slo.min_victim_share);
  } else if (r.victim_p99 > config_.slo.p99_delay_bound) {
    r.failure = "victim p99 " + std::to_string(r.victim_p99) +
                "ns over bound " +
                std::to_string(config_.slo.p99_delay_bound) + "ns";
  } else if (config_.slo.require_balanced_books && !r.balanced) {
    r.failure = "unbalanced books (enqueued != dequeued + dropped)";
  } else if (r.epoch_mismatches != 0) {
    r.failure = "packets scheduled under a half-installed plan";
  } else {
    r.pass = true;
  }
  return r;
}

RolloutReport RolloutEngine::rollout(std::uint64_t version_id,
                                                    TimeNs now) {
  RolloutReport rep;
  rep.version = version_id;
  qvisor::Fleet& fleet = cp_.fleet();

  const auto reject = [&rep](std::string why) {
    rep.outcome = RolloutOutcome::kRejected;
    rep.abort_reason = std::move(why);
    return rep;
  };

  const StoreVersion* candidate = store_.get(version_id);
  if (candidate == nullptr) {
    return reject("unknown store version " + std::to_string(version_id));
  }
  if (candidate->kind != DocKind::kPolicy) {
    return reject("version " + std::to_string(version_id) +
                  " is not a policy document");
  }
  const StoreVersion* lkg = store_.last_known_good(DocKind::kPolicy);
  if (lkg == nullptr) {
    return reject("no last-known-good policy to fall back to");
  }
  rep.lkg_before = lkg->id;
  rep.lkg_after = lkg->id;
  if (cp_.deployed() == nullptr) {
    return reject("fleet runs no deployed plan (bootstrap first)");
  }
  const std::uint64_t lkg_fp = plan_fingerprint(*cp_.deployed());

  const JsonValue doc = candidate->parse();
  const JsonValue* text = doc.find("policy");
  if (text == nullptr || !text->is_string()) {
    return reject("version carries no policy text");
  }

  auto staged = cp_.stage_text(text->as_string(), now);
  if (staged.noop) {
    // The fleet already runs this version byte-for-byte: only the LKG
    // pointer moves.
    std::string err;
    rep.noop = true;
    rep.outcome = RolloutOutcome::kCommitted;
    rep.converged = fleet.epochs_consistent();
    rep.expected_fingerprint = lkg_fp;
    rep.fleet_fingerprint = fleet_plan_fingerprint(fleet);
    rep.on_lkg = rep.fleet_fingerprint ==
                 uniform_fleet_digest(lkg_fp, fleet.switch_count());
    rep.ok = rep.converged && rep.on_lkg &&
             store_.mark_good(version_id, &err);
    if (rep.ok) rep.lkg_after = version_id;
    if (!err.empty()) rep.abort_reason = "LKG mark unacked: " + err;
    return rep;
  }
  if (!staged.ok) return reject("stage failed: " + staged.error);
  rep.staged_epoch = staged.epoch;
  rep.incremental = staged.incremental;
  trace("rollout:stage", now, "epoch", staged.epoch);

  // Abort = drop the staged epoch, then anti-entropy back to LKG.
  const auto abort_rollout = [&](std::string why) -> RolloutReport& {
    rep.outcome = RolloutOutcome::kAborted;
    rep.abort_reason = std::move(why);
    rep.switches_touched = fleet.staged_switches();
    trace("rollout:abort", now, "switches_touched", rep.switches_touched);
    cp_.abort_staged(now);
    while (!fleet.epochs_consistent() &&
           rep.reconcile_passes < config_.heal_budget) {
      now += config_.heal_interval;
      fleet.reconcile(now);
      ++rep.reconcile_passes;
    }
    rep.converged = fleet.epochs_consistent();
    rep.expected_fingerprint = lkg_fp;
    rep.fleet_fingerprint = fleet_plan_fingerprint(fleet);
    rep.on_lkg = rep.fleet_fingerprint ==
                 uniform_fleet_digest(lkg_fp, fleet.switch_count());
    rep.ok = rep.converged && rep.on_lkg;
    return rep;
  };

  const auto waves = plan_waves();
  for (std::size_t w = 0; w < waves.size(); ++w) {
    WaveRecord wr;
    wr.wave = w;
    wr.cohort = waves[w];
    std::string err;
    bool committed = false;
    while (wr.attempts <= config_.wave_retry_budget) {
      ++wr.attempts;
      if (cp_.commit_wave(wr.cohort, now, &err)) {
        committed = true;
        break;
      }
      now += config_.retry_interval;
    }
    wr.committed = committed;
    wr.error = committed ? "" : err;
    trace(committed ? "rollout:wave" : "rollout:wave_failed", now, "wave", w);
    if (!committed) {
      rep.waves.push_back(std::move(wr));
      return abort_rollout("wave " + std::to_string(w) +
                           " install failed after " +
                           std::to_string(wr.attempts) +
                           " attempts: " + err);
    }

    if (w == 0 || config_.probe_every_wave) {
      wr.probed = true;
      wr.probe_pass = true;
      for (const std::size_t idx : wr.cohort) {
        ProbeResult pr = probe_switch(idx);
        rep.epoch_mismatch_packets += pr.epoch_mismatches;
        rep.probes.push_back(pr);
        if (!pr.pass) {
          wr.probe_pass = false;
          trace("rollout:probe_failed", now, "switch", idx);
          rep.waves.push_back(std::move(wr));
          return abort_rollout("SLO regression on switch " +
                               std::to_string(idx) + ": " + pr.failure);
        }
      }
    }
    rep.waves.push_back(std::move(wr));
  }

  rep.switches_touched = fleet.staged_switches();
  std::string err;
  if (!cp_.finalize_staged(&err)) {
    return abort_rollout("finalize failed: " + err);
  }
  trace("rollout:finalize", now, "epoch", rep.staged_epoch);
  rep.outcome = RolloutOutcome::kCommitted;
  rep.converged = fleet.epochs_consistent();
  const std::uint64_t new_fp = plan_fingerprint(*cp_.deployed());
  rep.expected_fingerprint = new_fp;
  rep.fleet_fingerprint = fleet_plan_fingerprint(fleet);
  rep.on_lkg = rep.fleet_fingerprint ==
               uniform_fleet_digest(new_fp, fleet.switch_count());
  const bool marked = store_.mark_good(version_id, &err);
  if (marked) {
    rep.lkg_after = version_id;
  } else {
    rep.abort_reason = "committed, but LKG mark unacked: " + err;
  }
  rep.ok = rep.converged && rep.on_lkg && marked;
  return rep;
}

}  // namespace qv::mgmt
