#include "qvisor/runtime.hpp"

#include <algorithm>
#include <chrono>

#include "qvisor/quantile_transform.hpp"
#include "util/logging.hpp"

namespace qv::qvisor {

OperatorPolicy jailed_policy(const OperatorPolicy& base,
                             const std::vector<TenantSpec>& tenants,
                             const std::vector<TenantId>& active,
                             const std::vector<TenantId>& jailed) {
  std::vector<std::string> clean;
  std::vector<std::string> jail;
  for (const auto& spec : tenants) {
    if (!std::binary_search(active.begin(), active.end(), spec.id)) continue;
    const bool inmate = std::binary_search(jailed.begin(), jailed.end(),
                                           spec.id);
    (inmate ? jail : clean).push_back(spec.name);
  }
  OperatorPolicy effective = base.restricted_to(clean);
  if (jail.empty()) return effective;
  std::sort(jail.begin(), jail.end());
  auto tiers = effective.tiers();
  PriorityTier tier;
  SharingGroup cell;
  cell.tenants = std::move(jail);
  tier.groups.push_back(std::move(cell));
  tiers.push_back(std::move(tier));
  return OperatorPolicy(std::move(tiers));
}

// --- HypervisorTarget -------------------------------------------------------

std::vector<TenantId> HypervisorTarget::roster() const {
  std::vector<TenantId> ids;
  for (const auto& spec : hv_.tenants()) ids.push_back(spec.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::optional<TimeNs> HypervisorTarget::last_seen(TenantId tenant) const {
  const RankDistEstimator* est = hv_.find_estimator(tenant);
  if (est == nullptr || est->empty()) return std::nullopt;
  return est->last_observation();
}

bool HypervisorTarget::refine_quantiles(const RuntimeConfig& config) {
  std::unordered_map<TenantId, const RankDistEstimator*> estimators;
  for (const auto& [id, est] : hv_.estimators()) {
    estimators.emplace(id, &est);
  }
  std::size_t refined = 0;
  SynthesisPlan plan = refine_with_quantiles(
      hv_.plan(), estimators, config.quantile_min_samples, &refined);
  if (refined == 0) return false;
  if (!hv_.install_refined(std::move(plan))) return false;
  ++refinements_;
  return true;
}

bool HypervisorTarget::deploy(const std::vector<TenantId>& active,
                              const std::vector<TenantId>& jailed,
                              const RuntimeConfig& config, TimeNs now,
                              std::string& error) {
  const OperatorPolicy saved = hv_.policy();
  const OperatorPolicy effective =
      jailed_policy(saved, hv_.tenants(), active, jailed);

  // Optionally tighten declared bounds from live observations before
  // synthesizing.
  if (config.tighten_bounds) {
    for (const auto& spec : hv_.tenants()) {
      auto& est = hv_.estimator(spec.id);
      if (est.samples() >= config.tighten_min_samples) {
        TenantSpec tightened = spec;
        tightened.declared_bounds = est.bounds();
        hv_.upsert_tenant(std::move(tightened));
      }
    }
  }

  hv_.set_policy(effective);
  const auto wall0 = std::chrono::steady_clock::now();
  auto result = hv_.compile_for(effective.tenant_names());
  const auto recompile_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - wall0)
          .count();
  hv_.set_policy(saved);  // the operator's intent is permanent
  obs::Tracer* tr = runtime_tracer();
  if (!result.ok) {
    if (tr != nullptr) {
      tr->instant(obs::TraceCategory::kRuntime, "recompile:failed", now);
    }
    error = std::move(result.error);
    return false;
  }
  if (tr != nullptr) {
    // Span at the decision's simulated time; duration = wall-clock
    // synthesis + verification cost (what a reconfig costs to compute).
    tr->complete(obs::TraceCategory::kRuntime, "recompile", now,
                 static_cast<TimeNs>(recompile_ns), /*tid=*/0,
                 "active_tenants", active.size());
  }
  if (config.quantile_normalization) refine_quantiles(config);
  return true;
}

bool HypervisorTarget::refresh(const RuntimeConfig& config, TimeNs now) {
  // Even with a stable tenant set, live distributions drift: refresh
  // the quantile normalization if it is enabled.
  if (!config.quantile_normalization || !refine_quantiles(config)) {
    return false;
  }
  if (obs::Tracer* tr = runtime_tracer()) {
    tr->instant(obs::TraceCategory::kRuntime, "refine", now);
  }
  return true;
}

// --- RuntimeController ------------------------------------------------------

RuntimeController::RuntimeController(DeployTarget& target,
                                     RuntimeConfig config)
    : target_(target), config_(config) {}

std::vector<TenantId> RuntimeController::quarantined() const {
  std::vector<TenantId> ids;
  for (const auto& [id, since] : jail_) ids.push_back(id);
  return ids;
}

void RuntimeController::set_tracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  target_.set_tracer(tracer);
}

void RuntimeController::export_metrics(obs::Registry& reg,
                                       const std::string& prefix) const {
  reg.counter_view(prefix + ".adaptations", &adaptations_);
  reg.counter_view(prefix + ".quarantines", &quarantines_);
  reg.counter_view(prefix + ".retries", &retries_);
  reg.counter_view(prefix + ".degraded_entries", &degraded_entries_);
  reg.counter_view(prefix + ".recoveries", &recoveries_);
  reg.counter_view(prefix + ".unquarantines", &unquarantines_);
  reg.gauge(prefix + ".degraded", [this]() { return degraded_ ? 1.0 : 0.0; });
  target_.export_metrics(reg, prefix);
}

std::vector<TenantId> RuntimeController::compute_active(
    TimeNs now, const std::vector<TenantId>& roster) const {
  std::vector<TenantId> active;
  bool any_seen = false;
  for (const TenantId id : roster) {
    const std::optional<TimeNs> seen = target_.last_seen(id);
    if (!seen) continue;
    any_seen = true;
    if (now - *seen <= config_.activity_window) active.push_back(id);
  }
  // Nothing observed yet (startup) or a global lull: keep every tenant
  // provisioned rather than tearing the plan down.
  if (!any_seen || active.empty()) return roster;
  return active;
}

void RuntimeController::update_jail(TimeNs now,
                                    const std::vector<TenantId>& roster) {
  const TimeNs window = config_.quarantine_clean_window;
  auto it = window > 0 ? jail_.begin() : jail_.end();  // 0 = never release
  while (it != jail_.end()) {
    const TenantId id = it->first;
    TimeNs& jailed_at = it->second;
    const TimeNs last = target_.last_violation_at(id);
    if (last >= 0 && now - last >= window && last >= jailed_at) {
      // Violated while jailed: the term restarts in place. Releasing
      // at the window boundary would re-jail a tick later — two plan
      // pushes, with hostile traffic running free in between.
      jailed_at = now;
    }
    if (last < 0 || now - last < window || now - jailed_at < window) {
      ++it;  // violated too recently, or term not yet fully served
      continue;
    }
    // Forgiven: the verdict recomputes from post-release behaviour only.
    target_.forgive(id);
    ++unquarantines_;
    if (obs::Tracer* tr = runtime_tracer()) {
      tr->instant(obs::TraceCategory::kRuntime, "unquarantine", now,
                  /*tid=*/0, "tenant", id);
    }
    it = jail_.erase(it);
    jail_changed_ = true;
  }
  if (!config_.quarantine_adversarial) return;
  // Sticky until forgiven: a jailed tenant whose violation fraction
  // dips, or that goes quiet, stays jailed.
  for (const TenantId id : target_.adversarial()) {
    if (!roster.empty() &&
        !std::binary_search(roster.begin(), roster.end(), id)) {
      continue;  // not a registered tenant: nothing to demote
    }
    if (jail_.try_emplace(id, now).second) {
      ++quarantines_;
      jail_changed_ = true;
    }
  }
}

void RuntimeController::on_failure(TimeNs now, const std::string& error) {
  ++consecutive_failures_;
  const int shift = std::min(consecutive_failures_ - 1, 30);
  next_retry_at_ =
      now + std::min(config_.retry_backoff_cap,
                     static_cast<TimeNs>(config_.retry_backoff) << shift);
  if (consecutive_failures_ > config_.retry_budget && !degraded_) {
    // Budget exhausted: the control plane cannot land a plan, so stop
    // trusting possibly-stale transforms — every port falls back to
    // scheduling by the tenant-assigned label.
    degraded_ = true;
    ++degraded_entries_;
    target_.set_degraded(true);
    if (obs::Tracer* tr = runtime_tracer()) {
      tr->instant(obs::TraceCategory::kRuntime, "degraded:enter", now,
                  /*tid=*/0, "failures",
                  static_cast<std::uint64_t>(consecutive_failures_));
    }
    QV_WARN << "runtime controller degraded after " << consecutive_failures_
            << " consecutive failures";
  }
  QV_WARN << "runtime adaptation failed: " << error;
}

bool RuntimeController::tick(TimeNs now) {
  target_.prepare(now);
  if (consecutive_failures_ > 0) {
    // Failure streak: the backoff schedule overrides the regular
    // cadence — retry exactly when the backoff expires.
    if (now < next_retry_at_) return false;
  } else if (last_reconfig_ >= 0 &&
             now - last_reconfig_ < config_.min_reconfig_interval) {
    return false;
  }
  const bool is_retry = consecutive_failures_ > 0;

  const std::vector<TenantId> roster = target_.roster();
  update_jail(now, roster);
  std::vector<TenantId> active = compute_active(now, roster);

  // A pending retry always attempts the deploy, even if nothing else
  // changed — the whole point is to heal the failed install.
  if (active == active_ && !jail_changed_ && !is_retry &&
      !target_.needs_plan()) {
    if (!target_.refresh(config_, now)) return false;
    last_reconfig_ = now;
    return true;
  }

  if (is_retry) {
    ++retries_;
    if (obs::Tracer* tr = runtime_tracer()) {
      tr->instant(obs::TraceCategory::kRuntime, "recompile:retry", now,
                  /*tid=*/0, "attempt",
                  static_cast<std::uint64_t>(consecutive_failures_));
    }
  }
  std::string error;
  if (!target_.deploy(active, quarantined(), config_, now, error)) {
    on_failure(now, error);
    return false;
  }
  consecutive_failures_ = 0;
  next_retry_at_ = -1;
  obs::Tracer* tr = runtime_tracer();
  if (degraded_) {
    degraded_ = false;
    ++recoveries_;
    target_.set_degraded(false);
    if (tr != nullptr) {
      tr->instant(obs::TraceCategory::kRuntime, "degraded:exit", now);
    }
  }
  if (jail_changed_) {
    jail_changed_ = false;
    if (tr != nullptr) {
      tr->instant(obs::TraceCategory::kRuntime, "quarantine", now,
                  /*tid=*/0, "tenants", jail_.size());
    }
  }
  active_ = std::move(active);
  ++adaptations_;
  last_reconfig_ = now;
  return true;
}

}  // namespace qv::qvisor
