// The operator's inter-tenant policy language (paper §3.1):
//
//   policy := tier (">>" tier)*          -- strict priority, isolation
//   tier   := group (">" group)*         -- best-effort preference
//   group  := tenant ("+" tenant)*       -- fair sharing
//
// Example from the paper: "T1 >> T2 > T3 + T4 >> T5" — T1 strictly above
// everything; then T2 preferred over the sharing pair {T3, T4}; then T5
// strictly below.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace qv::qvisor {

struct SharingGroup {
  std::vector<std::string> tenants;  ///< joined by '+'
};

struct PriorityTier {
  std::vector<SharingGroup> groups;  ///< ordered by '>' (first = preferred)
};

class OperatorPolicy {
 public:
  OperatorPolicy() = default;
  explicit OperatorPolicy(std::vector<PriorityTier> tiers)
      : tiers_(std::move(tiers)) {}

  const std::vector<PriorityTier>& tiers() const { return tiers_; }
  bool empty() const { return tiers_.empty(); }

  /// All tenant names, in policy order (tier-major, group-minor).
  std::vector<std::string> tenant_names() const;

  /// True if `name` appears anywhere in the policy.
  bool mentions(const std::string& name) const;

  /// Zero-based tier index of `name`; nullopt if absent.
  std::optional<std::size_t> tier_of(const std::string& name) const;

  /// Canonical text form ("T1 >> T2 > T3 + T4"). Parsing the result
  /// yields an equal policy (round-trip property).
  std::string to_string() const;

  /// The policy induced on a subset of tenants: absent tenants are
  /// removed; groups and tiers that become empty disappear. Used by the
  /// runtime controller when tenants leave the network (paper §2,
  /// Idea 2 — adapting the scheduling policy at runtime).
  OperatorPolicy restricted_to(const std::vector<std::string>& names) const;

  friend bool operator==(const OperatorPolicy& a, const OperatorPolicy& b);

 private:
  std::vector<PriorityTier> tiers_;
};

/// Outcome of parsing an operator policy string.
struct PolicyParseResult {
  std::optional<OperatorPolicy> policy;  ///< set on success
  std::string error;                     ///< human-readable, on failure
  std::size_t error_pos = 0;             ///< offset into the input

  bool ok() const { return policy.has_value(); }
};

/// Parse the `>>` / `>` / `+` language. Tenant names are
/// [A-Za-z_][A-Za-z0-9_-]*; whitespace is free. Duplicate tenant names
/// are rejected (a tenant cannot appear in two places). This is
/// parse_policy_expr (policy_ast.hpp) followed by to_flat_policy:
/// redundant parentheses are accepted, and a nested or weighted
/// expression fails with an error saying the flat language cannot
/// express it.
PolicyParseResult parse_policy(const std::string& text);

}  // namespace qv::qvisor
