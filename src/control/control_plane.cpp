#include "control/control_plane.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

namespace qv::control {

namespace {

std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Remove `jailed` (sorted, unique) from `span`, appending the
/// surviving sub-spans to `out`.
void split_span(const GroupDecl::Span& span,
                const std::vector<TenantId>& jailed,
                std::vector<GroupDecl::Span>& out) {
  TenantId lo = span.lo;
  auto it = std::lower_bound(jailed.begin(), jailed.end(), span.lo);
  for (; it != jailed.end() && *it <= span.hi; ++it) {
    if (*it > lo) out.push_back({lo, *it - 1});
    if (*it == span.hi) return;  // nothing survives past the last id
    lo = *it + 1;
  }
  out.push_back({lo, span.hi});
}

}  // namespace

ControlPlane::ControlPlane(qvisor::Fleet& fleet,
                           qvisor::SynthesizerConfig config)
    : fleet_(fleet), compiler_(config) {}

GroupedPolicy ControlPlane::effective_policy(const GroupedPolicy& base) const {
  if (quarantined_.empty()) return base;
  GroupedPolicy eff = base;
  for (GroupDecl& g : eff.groups) {
    if (g.spans.empty()) continue;
    std::vector<GroupDecl::Span> kept;
    for (const GroupDecl::Span& s : g.spans) {
      split_span(s, quarantined_, kept);
    }
    g.spans = std::move(kept);
  }
  // The jail's explicit spans claim the ids away from any catch-all
  // automatically (explicit ranges beat the catch-all in the index).
  std::string jail_name = "jail";
  const auto clashes = [&] {
    return std::any_of(eff.groups.begin(), eff.groups.end(),
                       [&](const GroupDecl& g) { return g.name == jail_name; });
  };
  while (clashes()) jail_name += '_';
  GroupDecl jail;
  jail.name = jail_name;
  for (const TenantId id : quarantined_) {
    if (!jail.spans.empty() && jail.spans.back().hi + 1 == id) {
      jail.spans.back().hi = id;  // coalesce consecutive ids
    } else {
      jail.spans.push_back({id, id});
    }
  }
  eff.groups.push_back(std::move(jail));
  // Strictly-lowest tier: the same jail shape the per-tenant deploy
  // targets use (qvisor::jailed_policy), expressed over groups.
  auto tiers = eff.policy.tiers();
  qvisor::PriorityTier tier;
  qvisor::SharingGroup cell;
  cell.tenants = {jail_name};
  tier.groups.push_back(std::move(cell));
  tiers.push_back(std::move(tier));
  eff.policy = qvisor::OperatorPolicy(std::move(tiers));
  return eff;
}

ControlPlane::DeployResult ControlPlane::deploy_impl(
    const GroupedPolicy& policy, bool allow_incremental, TimeNs now) {
  DeployResult result;
  if (staged_plan_ != nullptr) {
    ++failed_deploys_;
    result.error =
        "rollout in progress; finalize or abort it before deploying";
    return result;
  }
  const std::uint64_t started = monotonic_ns();
  const GroupedPolicy effective = effective_policy(policy);
  // Only the incremental path may inherit the deployed index; the full
  // path stays a true from-scratch rebuild (it is the recovery escape
  // hatch when fleet state is suspect, and the benchmark baseline).
  auto compiled = compiler_.compile(
      effective, allow_incremental && deployed_ != nullptr ? deployed_->index
                                                           : nullptr);
  if (!compiled.ok()) {
    ++failed_deploys_;
    result.error = compiled.error;
    return result;
  }
  auto plan = std::make_shared<const CompiledGroupPlan>(
      std::move(*compiled.plan));

  const bool diffable = allow_incremental && deployed_ != nullptr;
  if (diffable) result.delta = diff_group_plans(*deployed_, *plan);

  if (diffable && result.delta.empty()) {
    // Nothing changed: record the intent, leave the fleet alone.
    policy_ = policy;
    ++noop_deploys_;
    result.ok = true;
    result.noop = true;
    result.latency_ns = monotonic_ns() - started;
    return result;
  }

  const bool incremental = diffable && !result.delta.full;
  const bool committed = fleet_.commit_group_plan(
      plan, incremental ? &result.delta : nullptr, now, &result.error);
  result.latency_ns = monotonic_ns() - started;
  if (!committed) {
    ++failed_deploys_;
    return result;
  }
  deployed_ = std::move(plan);
  policy_ = policy;
  ++deploys_;
  if (incremental) {
    ++incremental_deploys_;
    incremental_latency_.add(result.latency_ns);
  } else {
    ++full_deploys_;
    full_latency_.add(result.latency_ns);
  }
  result.ok = true;
  result.incremental = incremental;
  return result;
}

ControlPlane::DeployResult ControlPlane::deploy(const GroupedPolicy& policy,
                                                TimeNs now) {
  return deploy_impl(policy, /*allow_incremental=*/true, now);
}

ControlPlane::DeployResult ControlPlane::deploy_full(
    const GroupedPolicy& policy, TimeNs now) {
  return deploy_impl(policy, /*allow_incremental=*/false, now);
}

ControlPlane::DeployResult ControlPlane::deploy_text(const std::string& text,
                                                     TimeNs now) {
  DeployResult result;
  auto parsed = parse_grouped_policy(text);
  if (!parsed.ok()) {
    ++failed_deploys_;
    result.error = "parse: " + parsed.error + " (offset " +
                   std::to_string(parsed.error_pos) + ")";
    return result;
  }
  return deploy(*parsed.value, now);
}

ControlPlane::DeployResult ControlPlane::quarantine(std::vector<TenantId> ids,
                                                    TimeNs now) {
  DeployResult result;
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  if (ids == quarantined_) {
    result.ok = true;
    result.noop = true;
    return result;
  }
  if (!policy_) {
    result.error = "no deployed policy to quarantine against";
    return result;
  }
  std::vector<TenantId> saved = std::move(quarantined_);
  quarantined_ = std::move(ids);
  result = deploy_impl(*policy_, /*allow_incremental=*/true, now);
  if (!result.ok) quarantined_ = std::move(saved);
  return result;
}

ControlPlane::StageResult ControlPlane::stage(const GroupedPolicy& policy,
                                              TimeNs now) {
  (void)now;  // staging touches no switch; kept for API symmetry
  StageResult result;
  if (staged_plan_ != nullptr) {
    result.error = "a rollout is already staged";
    return result;
  }
  const GroupedPolicy effective = effective_policy(policy);
  auto compiled = compiler_.compile(
      effective, deployed_ != nullptr ? deployed_->index : nullptr);
  if (!compiled.ok()) {
    ++failed_deploys_;
    result.error = compiled.error;
    return result;
  }
  auto plan = std::make_shared<const CompiledGroupPlan>(
      std::move(*compiled.plan));

  const bool diffable = deployed_ != nullptr;
  if (diffable) result.delta = diff_group_plans(*deployed_, *plan);
  if (diffable && result.delta.empty()) {
    // Candidate is what the fleet already runs: record the intent,
    // stage nothing (a zero-wave rollout).
    policy_ = policy;
    ++noop_deploys_;
    result.ok = true;
    result.noop = true;
    return result;
  }

  const bool incremental = diffable && !result.delta.full;
  if (!fleet_.stage_group_plan(plan, incremental ? &result.delta : nullptr,
                               &result.error)) {
    ++failed_deploys_;
    return result;
  }
  staged_plan_ = std::move(plan);
  staged_policy_ = policy;
  result.ok = true;
  result.incremental = incremental;
  result.epoch = fleet_.staged_epoch();
  return result;
}

ControlPlane::StageResult ControlPlane::stage_text(const std::string& text,
                                                   TimeNs now) {
  StageResult result;
  auto parsed = parse_grouped_policy(text);
  if (!parsed.ok()) {
    ++failed_deploys_;
    result.error = "parse: " + parsed.error + " (offset " +
                   std::to_string(parsed.error_pos) + ")";
    return result;
  }
  return stage(*parsed.value, now);
}

bool ControlPlane::commit_wave(const std::vector<std::size_t>& cohort,
                               TimeNs now, std::string* error) {
  if (staged_plan_ == nullptr) {
    if (error != nullptr) *error = "no staged rollout";
    return false;
  }
  return fleet_.commit_staged_to(cohort, now, error);
}

bool ControlPlane::finalize_staged(std::string* error) {
  if (staged_plan_ == nullptr) {
    if (error != nullptr) *error = "no staged rollout";
    return false;
  }
  if (!fleet_.finalize_staged(error)) return false;
  deployed_ = std::move(staged_plan_);
  policy_ = std::move(*staged_policy_);
  staged_plan_.reset();
  staged_policy_.reset();
  ++deploys_;
  ++full_deploys_;  // a rollout is a full fleet transition
  return true;
}

void ControlPlane::abort_staged(TimeNs now) {
  if (staged_plan_ == nullptr) return;
  fleet_.abort_staged(now);
  staged_plan_.reset();
  staged_policy_.reset();
  ++failed_deploys_;
}

void ControlPlane::export_metrics(obs::Registry& reg,
                                  const std::string& prefix) const {
  reg.counter_view(prefix + ".deploys", &deploys_);
  reg.counter_view(prefix + ".full_deploys", &full_deploys_);
  reg.counter_view(prefix + ".incremental_deploys", &incremental_deploys_);
  reg.counter_view(prefix + ".noop_deploys", &noop_deploys_);
  reg.counter_view(prefix + ".failed_deploys", &failed_deploys_);
  for (const auto& [hist, label] :
       {std::pair<const obs::Log2Histogram*, const char*>{
            &full_latency_, ".resynthesis.full"},
        std::pair<const obs::Log2Histogram*, const char*>{
            &incremental_latency_, ".resynthesis.incremental"}}) {
    const std::string base = prefix + label;
    const obs::Log2Histogram* h = hist;
    reg.gauge(base + ".count",
              [h] { return static_cast<double>(h->count()); });
    reg.gauge(base + ".p50_ns", [h] { return h->quantile(0.5); });
    reg.gauge(base + ".p99_ns", [h] { return h->quantile(0.99); });
    reg.gauge(base + ".mean_ns", [h] { return h->mean(); });
  }
  reg.gauge(prefix + ".quarantined",
            [this] { return static_cast<double>(quarantined_.size()); });
  reg.gauge(prefix + ".plan.groups", [this] {
    return deployed_ ? static_cast<double>(deployed_->group_count()) : 0.0;
  });
  reg.gauge(prefix + ".plan.table_bytes", [this] {
    return deployed_ ? static_cast<double>(deployed_->table_bytes()) : 0.0;
  });
  reg.gauge(prefix + ".plan.index_bytes", [this] {
    return deployed_ ? static_cast<double>(deployed_->index_bytes()) : 0.0;
  });
}

// --- GroupTarget ------------------------------------------------------------

bool GroupTarget::deploy(const std::vector<TenantId>& /*active*/,
                         const std::vector<TenantId>& jailed,
                         const qvisor::RuntimeConfig& /*config*/, TimeNs now,
                         std::string& error) {
  auto result = cp_.quarantine(jailed, now);
  if (!result.ok) error = std::move(result.error);
  return result.ok;
}

}  // namespace qv::control
