#include "qvisor/policy.hpp"

#include <set>
#include <sstream>

#include "qvisor/policy_ast.hpp"

namespace qv::qvisor {

std::vector<std::string> OperatorPolicy::tenant_names() const {
  std::vector<std::string> out;
  for (const auto& tier : tiers_) {
    for (const auto& group : tier.groups) {
      for (const auto& t : group.tenants) out.push_back(t);
    }
  }
  return out;
}

bool OperatorPolicy::mentions(const std::string& name) const {
  return tier_of(name).has_value();
}

std::optional<std::size_t> OperatorPolicy::tier_of(
    const std::string& name) const {
  for (std::size_t i = 0; i < tiers_.size(); ++i) {
    for (const auto& group : tiers_[i].groups) {
      for (const auto& t : group.tenants) {
        if (t == name) return i;
      }
    }
  }
  return std::nullopt;
}

std::string OperatorPolicy::to_string() const {
  std::ostringstream out;
  for (std::size_t i = 0; i < tiers_.size(); ++i) {
    if (i > 0) out << " >> ";
    const auto& tier = tiers_[i];
    for (std::size_t g = 0; g < tier.groups.size(); ++g) {
      if (g > 0) out << " > ";
      const auto& group = tier.groups[g];
      for (std::size_t t = 0; t < group.tenants.size(); ++t) {
        if (t > 0) out << " + ";
        out << group.tenants[t];
      }
    }
  }
  return out.str();
}

OperatorPolicy OperatorPolicy::restricted_to(
    const std::vector<std::string>& names) const {
  const std::set<std::string> keep(names.begin(), names.end());
  std::vector<PriorityTier> tiers;
  for (const auto& tier : tiers_) {
    PriorityTier new_tier;
    for (const auto& group : tier.groups) {
      SharingGroup new_group;
      for (const auto& t : group.tenants) {
        if (keep.count(t)) new_group.tenants.push_back(t);
      }
      if (!new_group.tenants.empty()) {
        new_tier.groups.push_back(std::move(new_group));
      }
    }
    if (!new_tier.groups.empty()) tiers.push_back(std::move(new_tier));
  }
  return OperatorPolicy(std::move(tiers));
}

bool operator==(const OperatorPolicy& a, const OperatorPolicy& b) {
  if (a.tiers_.size() != b.tiers_.size()) return false;
  for (std::size_t i = 0; i < a.tiers_.size(); ++i) {
    const auto& ta = a.tiers_[i];
    const auto& tb = b.tiers_[i];
    if (ta.groups.size() != tb.groups.size()) return false;
    for (std::size_t g = 0; g < ta.groups.size(); ++g) {
      if (ta.groups[g].tenants != tb.groups[g].tenants) return false;
    }
  }
  return true;
}

PolicyParseResult parse_policy(const std::string& text) {
  // One grammar: the flat language is the subset of the expression
  // grammar that to_flat_policy maps back onto tiers and groups.
  ExprParseResult parsed = parse_policy_expr(text);
  PolicyParseResult r;
  if (!parsed.ok()) {
    r.error = std::move(parsed.error);
    r.error_pos = parsed.error_pos;
    return r;
  }
  r.policy = to_flat_policy(*parsed.expr);
  if (!r.policy) {
    r.error =
        "nested or weighted expression: the flat policy language cannot "
        "express it";
  }
  return r;
}

}  // namespace qv::qvisor
