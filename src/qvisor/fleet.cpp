#include "qvisor/fleet.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace qv::qvisor {

Fleet::Fleet(std::vector<TenantSpec> tenants, OperatorPolicy policy,
             BackendPtr backend, SynthesizerConfig config)
    : tenants_(std::move(tenants)), policy_(std::move(policy)),
      backend_(std::move(backend)), config_(config) {
  assert(backend_ != nullptr);
}

std::size_t Fleet::add_switch(const std::string& name) {
  Member member;
  member.name = name;
  member.hv = std::make_unique<Hypervisor>(tenants_, policy_, backend_,
                                           config_);
  if (tracer_ != nullptr) member.hv->set_tracer(tracer_);
  // Replay fleet-level contracts before enabling admission, so the new
  // switch carves the same guard config as its peers.
  for (const auto& contract : contracts_) member.hv->set_contract(contract);
  if (admission_.enabled) member.hv->set_admission(admission_);
  switches_.push_back(std::move(member));
  const std::size_t index = switches_.size() - 1;
  wire_install_fault(index);
  return index;
}

void Fleet::wire_install_fault(std::size_t switch_index) {
  Hypervisor& hv = *switches_[switch_index].hv;
  if (!install_fault_) {
    hv.set_install_fault({});
    return;
  }
  hv.set_install_fault([this, switch_index](std::uint64_t epoch) {
    return install_fault_(switch_index, epoch);
  });
}

void Fleet::set_install_fault(InstallFault fault) {
  install_fault_ = std::move(fault);
  for (std::size_t i = 0; i < switches_.size(); ++i) wire_install_fault(i);
}

void Fleet::set_tracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  for (auto& member : switches_) member.hv->set_tracer(tracer);
}

Hypervisor& Fleet::hypervisor(std::size_t switch_index) {
  return *switches_.at(switch_index).hv;
}

const std::string& Fleet::switch_name(std::size_t switch_index) const {
  return switches_.at(switch_index).name;
}

Hypervisor::CompileResult Fleet::compile() {
  std::vector<std::string> names;
  for (const auto& t : tenants_) names.push_back(t.name);
  return compile_for(names);
}

Hypervisor::CompileResult Fleet::compile_for(
    const std::vector<std::string>& active_names, TimeNs now) {
  assert(!switches_.empty());
  const TimeNs ts = now < 0 ? 0 : now;
  if (staged_group_ != nullptr) {
    Hypervisor::CompileResult result;
    result.error = "staged rollout in progress (epoch " +
                   std::to_string(staged_epoch_) +
                   "); finalize or abort it first";
    return result;
  }
  // Fleet-level validation: the shared policy must only name registered
  // tenants. (Hypervisor::compile_for restricts silently — correct for
  // the runtime path, but a misconfigured fleet policy must not deploy.)
  for (const auto& name : policy_.tenant_names()) {
    const bool known =
        std::any_of(tenants_.begin(), tenants_.end(),
                    [&](const TenantSpec& t) { return t.name == name; });
    if (!known) {
      Hypervisor::CompileResult result;
      result.error = "fleet policy mentions unknown tenant: " + name;
      return result;
    }
  }
  // Phase 1 — validate once for the whole fleet: all switches share one
  // configuration, so a dry run on a scratch hypervisor decides whether
  // the plan is deployable anywhere.
  Hypervisor scratch(tenants_, policy_, backend_, config_);
  auto result = scratch.compile_for(active_names);
  if (!result.ok) return result;

  // Phase 2 — commit everywhere at one fleet epoch. A switch agent may
  // still reject its install (injected fault / unreachable switch);
  // partial failure rolls every already-committed switch back to its
  // last-known-good plan, so the fleet never runs mixed epochs.
  const std::uint64_t epoch = ++epoch_counter_;
  std::string install_error;
  const auto rejected = install_cohort(
      every_switch(),
      [&](Member& member) {
        member.hv->set_policy(policy_);
        for (const auto& spec : tenants_) member.hv->upsert_tenant(spec);
        auto deployed = member.hv->commit_for(active_names, epoch);
        install_error = std::move(deployed.error);
        return deployed.ok;
      },
      "install:failed", ts);
  if (rejected) {
    Hypervisor::CompileResult failed;
    failed.error = "install failed on switch '" + switches_[*rejected].name +
                   "' at epoch " + std::to_string(epoch) + ": " +
                   install_error + " (fleet rolled back to epoch " +
                   std::to_string(committed_epoch_) + ")";
    return failed;
  }
  committed_epoch_ = epoch;
  committed_active_ = active_names;
  committed_group_.reset();  // per-tenant mode is the reconcile target
  return result;
}

bool Fleet::commit_group_plan(
    std::shared_ptr<const control::CompiledGroupPlan> plan,
    const control::GroupPlanDelta* delta, TimeNs now, std::string* error) {
  assert(!switches_.empty());
  const TimeNs ts = now < 0 ? 0 : now;
  if (plan == nullptr || plan->empty()) {
    if (error != nullptr) *error = "empty group plan";
    return false;
  }
  if (staged_group_ != nullptr) {
    if (error != nullptr) {
      *error = "staged rollout in progress (epoch " +
               std::to_string(staged_epoch_) +
               "); finalize or abort it first";
    }
    return false;
  }
  // The group compiler already validated the band layout (phase 1);
  // this is the fleet-wide phase-2 commit at one epoch.
  const std::uint64_t epoch = ++epoch_counter_;
  const auto rejected = install_cohort(
      every_switch(),
      [&](Member& member) {
        return member.hv->commit_group_plan(plan, epoch, delta);
      },
      "install:failed", ts);
  if (rejected) {
    if (error != nullptr) {
      *error = "group install failed on switch '" +
               switches_[*rejected].name + "' at epoch " +
               std::to_string(epoch) + " (fleet rolled back to epoch " +
               std::to_string(committed_epoch_) + ")";
    }
    return false;
  }
  committed_epoch_ = epoch;
  committed_group_ = std::move(plan);
  committed_active_.clear();
  return true;
}

bool Fleet::stage_group_plan(
    std::shared_ptr<const control::CompiledGroupPlan> plan,
    const control::GroupPlanDelta* delta, std::string* error) {
  if (plan == nullptr || plan->empty()) {
    if (error != nullptr) *error = "empty group plan";
    return false;
  }
  if (staged_group_ != nullptr) {
    if (error != nullptr) {
      *error = "a rollout is already staged at epoch " +
               std::to_string(staged_epoch_);
    }
    return false;
  }
  staged_group_ = std::move(plan);
  staged_delta_.reset();
  if (delta != nullptr) staged_delta_ = *delta;
  staged_epoch_ = ++epoch_counter_;
  return true;
}

bool Fleet::commit_staged_to(const std::vector<std::size_t>& cohort,
                             TimeNs now, std::string* error) {
  const TimeNs ts = now < 0 ? 0 : now;
  if (staged_group_ == nullptr) {
    if (error != nullptr) *error = "no staged rollout";
    return false;
  }
  for (std::size_t idx : cohort) {
    if (idx >= switches_.size()) {
      if (error != nullptr) {
        *error = "cohort names unknown switch index " + std::to_string(idx);
      }
      return false;
    }
  }
  const control::GroupPlanDelta* delta =
      staged_delta_.has_value() ? &*staged_delta_ : nullptr;
  // Already at the staged epoch (earlier wave, or the part of a failed
  // wave a retry re-covers): skip, so retries are idempotent. Per-wave
  // two-phase: a rejection undoes only this wave's fresh commits;
  // switches from earlier waves keep the staged epoch (the rollout
  // engine decides whether to retry the wave or abort the rollout).
  std::vector<std::size_t> pending;
  for (std::size_t idx : cohort) {
    if (switches_[idx].hv->plan_epoch() != staged_epoch_ &&
        std::find(pending.begin(), pending.end(), idx) == pending.end()) {
      pending.push_back(idx);
    }
  }
  const auto rejected = install_cohort(
      pending,
      [&](Member& member) {
        return member.hv->commit_group_plan(staged_group_, staged_epoch_,
                                            delta);
      },
      "wave:install_failed", ts);
  if (rejected) {
    if (error != nullptr) {
      *error = "staged install failed on switch '" +
               switches_[*rejected].name + "' at epoch " +
               std::to_string(staged_epoch_) + " (wave rolled back)";
    }
    return false;
  }
  return true;
}

bool Fleet::finalize_staged(std::string* error) {
  if (staged_group_ == nullptr) {
    if (error != nullptr) *error = "no staged rollout";
    return false;
  }
  for (const auto& member : switches_) {
    if (!member.hv->has_group_plan() ||
        member.hv->plan_epoch() != staged_epoch_) {
      if (error != nullptr) {
        *error = "switch '" + member.name + "' is not at staged epoch " +
                 std::to_string(staged_epoch_) + "; cannot finalize";
      }
      return false;
    }
  }
  committed_epoch_ = staged_epoch_;
  committed_group_ = std::move(staged_group_);
  committed_active_.clear();
  staged_group_.reset();
  staged_delta_.reset();
  staged_epoch_ = 0;
  return true;
}

void Fleet::abort_staged(TimeNs now) {
  if (staged_group_ == nullptr) return;
  const TimeNs ts = now < 0 ? 0 : now;
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    Member& member = switches_[i];
    if (member.hv->plan_epoch() != staged_epoch_) continue;
    // Each staged switch committed exactly once at the staged epoch, so
    // its single-level undo slot holds last-known-good.
    if (member.hv->rollback()) {
      ++rollbacks_;
      if (obs::Tracer* tr = runtime_tracer()) {
        tr->instant(obs::TraceCategory::kRuntime, "abort:rollback", ts,
                    /*tid=*/0, "switch", i);
      }
    } else if (committed_epoch_ == 0) {
      // Nothing was ever committed fleet-wide: there is no LKG for
      // reconcile() to converge on, so a stuck switch falls back to the
      // safe empty-plan path instead of keeping the aborted plan.
      member.hv->clear_plan();
    }
    // Otherwise the switch stays dirty at the aborted epoch and
    // reconcile() (anti-entropy against LKG) heals it.
  }
  staged_group_.reset();
  staged_delta_.reset();
  staged_epoch_ = 0;
}

std::size_t Fleet::staged_switches() const {
  if (staged_group_ == nullptr) return 0;
  std::size_t n = 0;
  for (const auto& member : switches_) {
    if (member.hv->plan_epoch() == staged_epoch_) ++n;
  }
  return n;
}

std::size_t Fleet::reconcile(TimeNs now) {
  if (committed_epoch_ == 0) return 0;  // nothing ever deployed
  const TimeNs ts = now < 0 ? 0 : now;
  std::size_t healed = 0;
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    Member& member = switches_[i];
    if (runs_committed(member)) continue;
    if (committed_group_ != nullptr) {
      // Group mode: the shared compiled plan IS the configuration —
      // re-push it whole (no delta: the dirty switch's state is stale).
      if (!member.hv->commit_group_plan(committed_group_,
                                        committed_epoch_)) {
        continue;  // still unreachable; try next pass
      }
    } else {
      member.hv->set_policy(policy_);
      for (const auto& spec : tenants_) member.hv->upsert_tenant(spec);
      const auto repushed =
          member.hv->commit_for(committed_active_, committed_epoch_);
      if (!repushed.ok) continue;  // still unreachable; try next pass
    }
    ++reconciles_;
    ++healed;
    if (obs::Tracer* tr = runtime_tracer()) {
      tr->instant(obs::TraceCategory::kRuntime, "reconcile", ts, /*tid=*/0,
                  "switch", i);
    }
  }
  return healed;
}

bool Fleet::epochs_consistent() const {
  return committed_epoch_ == 0 ||
         std::all_of(switches_.begin(), switches_.end(),
                     [this](const Member& m) { return runs_committed(m); });
}

std::vector<std::size_t> Fleet::every_switch() const {
  std::vector<std::size_t> all(switches_.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  return all;
}

bool Fleet::runs_committed(const Member& member) const {
  const bool installed = committed_group_ != nullptr
                             ? member.hv->has_group_plan()
                             : member.hv->has_plan();
  return installed && member.hv->plan_epoch() == committed_epoch_;
}

std::optional<std::size_t> Fleet::install_cohort(
    const std::vector<std::size_t>& cohort,
    const std::function<bool(Member&)>& install, const char* failed_instant,
    TimeNs ts) {
  std::vector<std::size_t> fresh;  // committed by THIS call
  for (std::size_t idx : cohort) {
    if (install(switches_[idx])) {
      fresh.push_back(idx);
      continue;
    }
    ++failed_installs_;
    if (obs::Tracer* tr = runtime_tracer()) {
      tr->instant(obs::TraceCategory::kRuntime, failed_instant, ts,
                  /*tid=*/0, "switch", idx);
    }
    for (std::size_t j : fresh) {
      if (switches_[j].hv->rollback()) {
        ++rollbacks_;
        if (obs::Tracer* tr = runtime_tracer()) {
          tr->instant(obs::TraceCategory::kRuntime, "rollback", ts,
                      /*tid=*/0, "switch", j);
        }
      }
      // A switch whose rollback push is ALSO rejected stays dirty;
      // reconcile() (or abort_staged()) heals it when it recovers.
    }
    return idx;
  }
  return std::nullopt;
}

std::unique_ptr<sched::Scheduler> Fleet::make_port_scheduler(
    std::size_t switch_index) {
  return switches_.at(switch_index).hv->make_port_scheduler();
}

std::unordered_map<TenantId, std::uint64_t> Fleet::per_tenant_packets()
    const {
  std::unordered_map<TenantId, std::uint64_t> out;
  for (const auto& member : switches_) {
    for (const auto& [tenant, count] : member.hv->per_tenant_packets()) {
      out[tenant] += count;
    }
  }
  return out;
}

void Fleet::export_metrics(obs::Registry& reg,
                           const std::string& prefix) const {
  reg.counter_view(prefix + ".rollbacks", &rollbacks_);
  reg.counter_view(prefix + ".reconciles", &reconciles_);
  reg.counter_view(prefix + ".failed_installs", &failed_installs_);
  reg.gauge(prefix + ".committed_epoch",
            [this] { return static_cast<double>(committed_epoch_); });
  reg.gauge(prefix + ".degraded",
            [this] { return degraded_ ? 1.0 : 0.0; });
  for (const auto& member : switches_) {
    member.hv->export_metrics(reg, prefix + "." + member.name);
  }
  for (const auto& spec : tenants_) {
    const TenantId id = spec.id;
    reg.gauge(prefix + ".fleet.tenant." + spec.name + ".packets",
              [this, id] {
                const auto counts = per_tenant_packets();
                const auto it = counts.find(id);
                return it == counts.end() ? 0.0
                                          : static_cast<double>(it->second);
              });
  }
}

std::optional<TimeNs> Fleet::last_seen(TenantId tenant) const {
  std::optional<TimeNs> latest;
  for (const auto& member : switches_) {
    const RankDistEstimator* est = member.hv->find_estimator(tenant);
    if (est == nullptr || est->empty()) continue;
    if (!latest || est->last_observation() > *latest) {
      latest = est->last_observation();
    }
  }
  return latest;
}

std::vector<TenantId> Fleet::adversarial() const {
  std::vector<TenantId> out;
  for (const auto& member : switches_) {
    for (const TenantId id : member.hv->monitor().adversarial()) {
      if (std::find(out.begin(), out.end(), id) == out.end()) {
        out.push_back(id);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void Fleet::set_degraded(bool degraded) {
  degraded_ = degraded;
  for (auto& member : switches_) member.hv->set_degraded(degraded);
}

TimeNs Fleet::last_violation_at(TenantId tenant) const {
  TimeNs latest = -1;
  for (const auto& member : switches_) {
    latest = std::max(latest,
                      member.hv->monitor().last_violation_at(tenant));
  }
  return latest;
}

void Fleet::reset_monitor(TenantId tenant) {
  for (auto& member : switches_) member.hv->monitor().reset(tenant);
}

void Fleet::set_policy(OperatorPolicy policy) {
  policy_ = std::move(policy);
}

void Fleet::set_contract(const TenantContract& contract) {
  for (auto& existing : contracts_) {
    if (existing.tenant == contract.tenant) {
      existing = contract;
      for (auto& member : switches_) member.hv->set_contract(contract);
      return;
    }
  }
  contracts_.push_back(contract);
  for (auto& member : switches_) member.hv->set_contract(contract);
}

void Fleet::set_admission(const AdmissionSettings& settings) {
  admission_ = settings;
  for (auto& member : switches_) member.hv->set_admission(settings);
}

void Fleet::upsert_tenant(TenantSpec spec) {
  for (auto& existing : tenants_) {
    if (existing.name == spec.name) {
      existing = std::move(spec);
      return;
    }
  }
  tenants_.push_back(std::move(spec));
}

// --- FleetTarget ------------------------------------------------------------

std::vector<TenantId> FleetTarget::roster() const {
  std::vector<TenantId> ids;
  for (const auto& spec : fleet_.tenants()) ids.push_back(spec.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

bool FleetTarget::deploy(const std::vector<TenantId>& active,
                         const std::vector<TenantId>& jailed,
                         const RuntimeConfig& /*config*/, TimeNs now,
                         std::string& error) {
  const OperatorPolicy saved = fleet_.policy();
  const OperatorPolicy effective =
      jailed_policy(saved, fleet_.tenants(), active, jailed);
  fleet_.set_policy(effective);
  auto result = fleet_.compile_for(effective.tenant_names(), now);
  fleet_.set_policy(saved);  // the operator's intent is permanent
  if (!result.ok) error = std::move(result.error);
  return result.ok;
}

}  // namespace qv::qvisor
