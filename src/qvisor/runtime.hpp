// Runtime adaptation (paper §2, Idea 2): "an event-driven controller
// could synthesize a new scheduling policy after the first packets of a
// new workload arrived, and deploy it into the data plane".
//
// The RuntimeController is that controller, and the only one: one
// adaptation loop, driven by a simulator timer in experiments, that
// derives the set of ACTIVE tenants and the jail set and redeploys
// whenever either changes — so when T1/T2 go quiet at the paper's t1
// and T3 lights up (Fig. 2), T3's band expands to the full rank space
// automatically. Tenants the monitor judges adversarial are jailed:
// demoted to a strictly-lowest tier until forgiven.
//
// What "deploy" means is the DeployTarget's business. Three targets
// exist: one Hypervisor (HypervisorTarget, below), a Fleet of them
// (FleetTarget, fleet.hpp), and the group-compiled million-tenant
// control plane (control::GroupTarget, control_plane.hpp). The loop
// owns everything they share: the cadence gate, the active set, the
// jail and its release rule, the retry/backoff/degrade state machine,
// the counters and their trace events.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "qvisor/qvisor.hpp"
#include "util/time.hpp"

namespace qv::qvisor {

struct RuntimeConfig {
  /// A tenant is active if it sent a packet within this window.
  TimeNs activity_window = milliseconds(10);

  /// Do not re-compile more often than this (data-plane churn guard).
  TimeNs min_reconfig_interval = milliseconds(1);

  /// Demote tenants the monitor flags as adversarial to a bottom tier.
  bool quarantine_adversarial = true;

  /// Replace declared rank bounds with observed ones when enough
  /// samples exist (paper §5 "optimizing configurations at runtime").
  bool tighten_bounds = false;
  std::size_t tighten_min_samples = 256;

  /// After each re-synthesis, replace range normalization with
  /// quantile normalization from live rank distributions (§5: compute
  /// transforms from "the distribution of the latest packets").
  bool quantile_normalization = false;
  std::size_t quantile_min_samples = 128;

  /// Self-healing: consecutive recompile failures tolerated before the
  /// controller gives up and degrades the data plane. Failed attempts
  /// are retried with exponential backoff (doubling from
  /// `retry_backoff`, capped at `retry_backoff_cap`) instead of the
  /// regular reconfig cadence.
  int retry_budget = 3;
  TimeNs retry_backoff = milliseconds(1);
  TimeNs retry_backoff_cap = milliseconds(64);

  /// Quarantine hysteresis: a jailed tenant is forgiven (its monitor
  /// state resets and the jail tier lifts) once its last violation is
  /// at least this long ago AND it has served this long in jail. A
  /// violation while jailed restarts the term. 0 = never release.
  TimeNs quarantine_clean_window = 0;
};

/// What the adaptation loop deploys to. Tenants are keyed by id; each
/// target maps ids to whatever its deploy path speaks.
class DeployTarget {
 public:
  virtual ~DeployTarget() = default;

  /// Tenants whose activity the loop tracks, sorted by id. Empty = no
  /// activity restriction (group mode provisions every group).
  virtual std::vector<TenantId> roster() const = 0;
  /// Most recent observation of `tenant`; nullopt if never seen.
  virtual std::optional<TimeNs> last_seen(TenantId tenant) const = 0;
  /// Tenants the monitors currently judge adversarial.
  virtual std::vector<TenantId> adversarial() const = 0;
  /// Most recent violation of `tenant`, or -1 if it never violated.
  virtual TimeNs last_violation_at(TenantId tenant) const = 0;
  /// Reset the tenant's monitor state (it was released from jail).
  virtual void forgive(TenantId tenant) = 0;
  /// Degraded pass-through ranks on every port the target drives.
  virtual void set_degraded(bool degraded) = 0;

  /// Work due on every tick, before the cadence gate (anti-entropy).
  virtual void prepare(TimeNs /*now*/) {}
  /// True while nothing is deployed, so the next tick must deploy.
  virtual bool needs_plan() const { return false; }
  /// Deploy the operator policy over `active` (empty = everyone) with
  /// `jailed` demoted to one strictly-lowest tier. On rejection returns
  /// false and fills `error`; the running plan stays untouched.
  virtual bool deploy(const std::vector<TenantId>& active,
                      const std::vector<TenantId>& jailed,
                      const RuntimeConfig& config, TimeNs now,
                      std::string& error) = 0;
  /// Tick with an unchanged tenant mix: refresh the installed plan in
  /// place. Returns true when something was installed.
  virtual bool refresh(const RuntimeConfig& /*config*/, TimeNs /*now*/) {
    return false;
  }

  virtual void set_tracer(obs::Tracer* /*tracer*/) {}
  /// Target-specific counters, registered next to the loop's.
  virtual void export_metrics(obs::Registry& /*reg*/,
                              const std::string& /*prefix*/) const {}
};

/// The per-tenant jail shape shared by the Hypervisor and Fleet
/// targets: `base` restricted to the active clean tenants, with the
/// active jailed ones appended as one strictly-lowest tier.
OperatorPolicy jailed_policy(const OperatorPolicy& base,
                             const std::vector<TenantSpec>& tenants,
                             const std::vector<TenantId>& active,
                             const std::vector<TenantId>& jailed);

/// One switch: deploys by recompiling the hypervisor. Keeps the
/// single-switch extras — bound tightening before synthesis, quantile
/// refinement after it and on ticks with a stable mix — and traces
/// each recompile as a `runtime` span whose duration is its wall-clock
/// cost.
class HypervisorTarget final : public DeployTarget {
 public:
  /// `hv` must outlive the target.
  explicit HypervisorTarget(Hypervisor& hv) : hv_(hv) {}

  std::vector<TenantId> roster() const override;
  std::optional<TimeNs> last_seen(TenantId tenant) const override;
  std::vector<TenantId> adversarial() const override {
    return hv_.monitor().adversarial();
  }
  TimeNs last_violation_at(TenantId tenant) const override {
    return hv_.monitor().last_violation_at(tenant);
  }
  void forgive(TenantId tenant) override { hv_.monitor().reset(tenant); }
  void set_degraded(bool degraded) override { hv_.set_degraded(degraded); }
  bool needs_plan() const override { return !hv_.has_plan(); }
  bool deploy(const std::vector<TenantId>& active,
              const std::vector<TenantId>& jailed,
              const RuntimeConfig& config, TimeNs now,
              std::string& error) override;
  bool refresh(const RuntimeConfig& config, TimeNs now) override;
  void set_tracer(obs::Tracer* tracer) override { tracer_ = tracer; }
  void export_metrics(obs::Registry& reg,
                      const std::string& prefix) const override {
    reg.counter_view(prefix + ".refinements", &refinements_);
  }

  /// Quantile-refinement installs (including refresh-only ticks).
  std::uint64_t refinements() const { return refinements_; }

 private:
  /// Apply quantile refinement to the installed plan. Returns true if
  /// any tenant's normalization changed.
  bool refine_quantiles(const RuntimeConfig& config);
  obs::Tracer* runtime_tracer() const {
    return tracer_ != nullptr &&
                   tracer_->enabled(obs::TraceCategory::kRuntime)
               ? tracer_
               : nullptr;
  }

  Hypervisor& hv_;
  obs::Tracer* tracer_ = nullptr;
  std::uint64_t refinements_ = 0;
};

class RuntimeController {
 public:
  /// `target` must outlive the controller.
  RuntimeController(DeployTarget& target, RuntimeConfig config = {});

  /// Evaluate activity and the jail, and (if needed) redeploy.
  /// Returns true when a new plan was deployed.
  bool tick(TimeNs now);

  /// The active set of the last deploy, sorted by id. Empty until the
  /// first one: given a roster, the loop's first tick always deploys
  /// its own view, even over an unchanged plan the operator compiled.
  const std::vector<TenantId>& active_tenants() const { return active_; }
  /// Jailed tenants, sorted by id (the deploy may still be pending).
  std::vector<TenantId> quarantined() const;
  std::uint64_t adaptations() const { return adaptations_; }
  /// Tenants jailed (each jailing counts once until released).
  std::uint64_t quarantines() const { return quarantines_; }
  /// Deploy attempts re-issued after a failure (self-healing).
  std::uint64_t retries() const { return retries_; }
  /// Times the retry budget ran out and the data plane degraded.
  std::uint64_t degraded_entries() const { return degraded_entries_; }
  /// Times a later deploy succeeded and lifted degraded mode.
  std::uint64_t recoveries() const { return recoveries_; }
  /// Tenants released from jail (quarantine hysteresis).
  std::uint64_t unquarantines() const { return unquarantines_; }
  /// True while the data plane runs degraded pass-through ranks.
  bool degraded() const { return degraded_; }
  const RuntimeConfig& config() const { return config_; }

  /// Attach a tracer (not owned), forwarded to the target: retries,
  /// degraded transitions and jail changes become `runtime` instants.
  void set_tracer(obs::Tracer* tracer);

  /// Publish adaptation counters (and the target's) as live registry
  /// views.
  void export_metrics(obs::Registry& reg, const std::string& prefix) const;

 private:
  /// Active = observed within the window. Before any traffic at all,
  /// or in a global lull, every roster tenant counts as active.
  std::vector<TenantId> compute_active(
      TimeNs now, const std::vector<TenantId>& roster) const;
  /// Release forgiven tenants, then jail newly adversarial ones (only
  /// roster tenants when the target has a roster).
  void update_jail(TimeNs now, const std::vector<TenantId>& roster);
  /// Count a failed deploy, schedule its retry, degrade when the
  /// budget is spent.
  void on_failure(TimeNs now, const std::string& error);
  obs::Tracer* runtime_tracer() const {
    return tracer_ != nullptr &&
                   tracer_->enabled(obs::TraceCategory::kRuntime)
               ? tracer_
               : nullptr;
  }

  DeployTarget& target_;
  RuntimeConfig config_;
  std::vector<TenantId> active_;
  /// Jailed tenant -> when its current term started.
  std::map<TenantId, TimeNs> jail_;
  bool jail_changed_ = false;  ///< since the last successful deploy
  TimeNs last_reconfig_ = -1;
  obs::Tracer* tracer_ = nullptr;

  // Self-healing state: failure streak, next allowed retry time, and
  // whether the data plane is currently degraded.
  int consecutive_failures_ = 0;
  TimeNs next_retry_at_ = -1;
  bool degraded_ = false;

  std::uint64_t adaptations_ = 0;
  std::uint64_t quarantines_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t degraded_entries_ = 0;
  std::uint64_t recoveries_ = 0;
  std::uint64_t unquarantines_ = 0;
};

}  // namespace qv::qvisor
