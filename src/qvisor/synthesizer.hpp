// The QVISOR synthesizer (paper §3.2): given the tenants' scheduling
// policies and the operator's inter-tenant policy, generate the joint
// scheduling function as a set of per-tenant rank transformations.
//
// Band-allocation semantics (documented in DESIGN.md §4):
//
//   * `>>` (isolation tiers): tiers receive disjoint, ordered bands of
//     the output rank space. By construction the worst-case maximum
//     transformed rank of tier i is strictly below the minimum of tier
//     i+1 — strict priority holds for ANY input ranks within declared
//     bounds (paper §2: "we can shift all the priorities from T3's
//     scheduling policy such that, even in the worst case, it does not
//     impact the performance of the other tenants").
//
//   * `>` (preference): groups inside a tier get bands offset by
//     `pref_bias` levels but overlapping; the preferred group wins most
//     head-to-head comparisons, yet urgent packets of the next group
//     can still overtake lazy packets of the preferred one — priority
//     "applied in a best-effort manner" (§3.1).
//
//   * `+` (sharing): tenants are normalized and quantized onto the SAME
//     band, so their quantized levels compare fairly and FIFO
//     tie-breaking interleaves them (§3.2 rank-normalization). An
//     optional per-tenant stagger reproduces the exact interleave of
//     the paper's Fig. 3.
//
// One walk (lay_out) applies the three rules over a PolicyExpr at any
// depth: a flat policy is its from_flat_policy() expression, a nested
// one is hierarchy.hpp's flatten_to_plan. A layout too wide for the rank
// space degrades to the largest level count that fits, with a note (§5:
// propose a partial specification rather than fail).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "qvisor/policy.hpp"
#include "qvisor/policy_ast.hpp"
#include "qvisor/tenant.hpp"
#include "qvisor/transform.hpp"

namespace qv::qvisor {

struct SynthesizerConfig {
  /// Output rank space [0, rank_space) offered by the backend.
  Rank rank_space = 1u << 20;

  /// Desired quantization levels per sharing band. More levels keep
  /// more of each tenant's intra-tenant order (see the quantization
  /// ablation bench); fewer levels fit more tiers into small rank
  /// spaces.
  std::uint32_t levels_per_group = 256;

  /// Offset (in levels) between '>' groups inside a tier. 0 = auto
  /// (one quarter of the band).
  std::uint32_t pref_bias = 0;

  /// Per-tenant base offset inside a '+' sharing band. 0 keeps all
  /// sharing tenants on identical levels (FIFO tie-break interleaves);
  /// 1 reproduces the staggered interleave of the paper's Fig. 3.
  std::uint32_t share_stagger = 0;
};

/// Where one tenant's transformed ranks land.
struct TenantPlan {
  TenantId tenant = kInvalidTenant;
  std::string name;
  std::size_t tier = 0;
  std::size_t group = 0;
  std::size_t index_in_group = 0;
  RankTransform transform;

  /// Distribution-aware override of `transform`'s quantization over the
  /// same band (quantile_transform.hpp). When set, the pre-processor
  /// applies it instead of `transform`.
  std::optional<BreakpointTransform> quantile;
  friend bool operator==(const TenantPlan&, const TenantPlan&) = default;
};

struct TierBand {
  Rank lo = 0;
  Rank hi = 0;  ///< inclusive
  friend bool operator==(const TierBand&, const TierBand&) = default;
};

/// The joint scheduling function, ready for the pre-processor.
struct SynthesisPlan {
  std::vector<TenantPlan> tenants;  ///< in policy order
  std::vector<TierBand> tier_bands;
  Rank rank_space = 0;
  OperatorPolicy policy;

  /// Guarantees and degradations, human-readable (paper §5: "QVISOR
  /// would output the proposed configuration, together with the
  /// supported specifications and the offered guarantees").
  std::vector<std::string> notes;
  bool degraded = false;

  const TenantPlan* find(TenantId id) const;
  const TenantPlan* find(const std::string& name) const;

  /// Ranks the plan can actually emit: one past the highest band (the
  /// used prefix of `rank_space`). Backends size exact-PIFO structures
  /// from this — post-synthesis it is small even when the hardware
  /// rank space is huge. 0 when the plan is empty.
  Rank used_rank_space() const;
  friend bool operator==(const SynthesisPlan&,
                         const SynthesisPlan&) = default;
};

/// The spec <-> policy name check every compile path shares
/// (Synthesizer, flatten_to_plan, TreeCompiler): spec names are
/// non-empty and unique, every name the policy mentions has a spec, and
/// every spec is mentioned. Returns the error, empty when the names
/// match; `matched`, when given, receives each policy name's spec in
/// policy order.
std::string match_tenant_names(const std::vector<std::string>& policy_names,
                               const std::vector<TenantSpec>& tenants,
                               std::vector<const TenantSpec*>* matched =
                                   nullptr);

class Synthesizer {
 public:
  struct Result {
    std::optional<SynthesisPlan> plan;
    std::string error;

    bool ok() const { return plan.has_value(); }
  };

  explicit Synthesizer(SynthesizerConfig config = {});

  /// Generate the joint scheduling function. Every tenant named in the
  /// policy must appear in `tenants`; tenants absent from the policy
  /// are an error (restrict the policy first, or mention them).
  Result synthesize(const std::vector<TenantSpec>& tenants,
                    const OperatorPolicy& policy) const;

  /// The band layout itself, over any expression: tenant transforms,
  /// tier bands, tier/group/index_in_group and notes. `plan.policy` is
  /// left empty for the caller to fill.
  Result lay_out(const std::vector<TenantSpec>& tenants,
                 const PolicyExpr& expr) const;

  const SynthesizerConfig& config() const { return config_; }

 private:
  SynthesizerConfig config_;
};

}  // namespace qv::qvisor
