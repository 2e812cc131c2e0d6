#include "qvisor/synthesizer.hpp"

#include <algorithm>
#include <map>
#include <ranges>
#include <sstream>
#include <string_view>

namespace qv::qvisor {

const TenantPlan* SynthesisPlan::find(TenantId id) const {
  for (const auto& t : tenants) {
    if (t.tenant == id) return &t;
  }
  return nullptr;
}

const TenantPlan* SynthesisPlan::find(const std::string& name) const {
  for (const auto& t : tenants) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

Rank SynthesisPlan::used_rank_space() const {
  Rank used = 0;
  for (const auto& band : tier_bands) {
    if (band.hi != kMaxRank) used = std::max(used, band.hi + 1);
  }
  // Quantile refinements stay inside the bands, but belt-and-braces:
  // cover every transform's worst-case output too.
  for (const auto& tp : tenants) {
    const Rank worst =
        tp.quantile ? tp.quantile->out_max() : tp.transform.out_max();
    if (worst != kMaxRank) used = std::max(used, worst + 1);
  }
  return used;
}

std::string match_tenant_names(const std::vector<std::string>& policy_names,
                               const std::vector<TenantSpec>& tenants,
                               std::vector<const TenantSpec*>* matched) {
  std::map<std::string_view, std::size_t> index;
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    if (tenants[i].name.empty()) return "tenant with empty name";
    if (!index.emplace(tenants[i].name, i).second) {
      return "duplicate tenant spec: " + tenants[i].name;
    }
  }
  std::vector<bool> named(tenants.size(), false);
  for (const auto& name : policy_names) {
    const auto it = index.find(name);
    if (it == index.end()) return "policy mentions unknown tenant: " + name;
    named[it->second] = true;
    if (matched != nullptr) matched->push_back(&tenants[it->second]);
  }
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    if (!named[i]) {
      return "tenant not mentioned in policy: " + tenants[i].name +
             " (restrict the spec set or extend the policy)";
    }
  }
  return "";
}

Synthesizer::Synthesizer(SynthesizerConfig config) : config_(config) {}

namespace {

using Kind = PolicyExpr::Kind;

/// The strata of the §3.1 language, outermost first: a top-level `>>`
/// splits tiers, a tier's `>` splits groups, a group's `+` splits its
/// members. Whatever lies inside a member is nested structure.
enum Stratum : int { kTiers, kGroups, kMembers, kNested };
constexpr Kind kSplitBy[] = {Kind::kIsolate, Kind::kPrefer, Kind::kShare};

/// One pass of the band layout at a fixed quantization. With no plan it
/// only measures the width the layout takes; with one it also emits the
/// tenant transforms, tier bands and notes.
struct LayoutWalk {
  std::uint32_t levels;
  std::uint32_t bias;
  std::uint32_t stagger;
  const std::vector<const TenantSpec*>& specs;  ///< one per leaf, in order
  SynthesisPlan* plan;
  std::size_t tier = 0;
  std::size_t group = 0;
  std::size_t member = 0;

  /// Lay `e` out from `base` as part of stratum `s`; returns its width.
  /// `>>` stacks its parts, `>` offsets part i by i * bias and `+` by
  /// i * stagger; a leaf takes one band of `levels`.
  std::uint64_t place(const PolicyExpr& e, std::uint64_t base, int s) {
    if (s == kNested && e.is_leaf()) {
      if (plan != nullptr) emit(base);
      return levels;
    }
    // A node that does not split its stratum is that stratum's only
    // part: in "a >> b + c", "a" is tier 0's only group.
    const bool splits = s == kNested || e.kind == kSplitBy[s];
    const Kind op = splits ? e.kind : kSplitBy[s];
    const std::size_t parts = splits ? e.children.size() : 1;
    const std::uint64_t step = op == Kind::kPrefer ? bias : stagger;
    std::uint64_t width = 0;
    for (std::size_t i = 0; i < parts; ++i) {
      if (s == kTiers) tier = i;
      if (s == kGroups) {
        group = i;
        member = 0;
      }
      const std::uint64_t offset = op == Kind::kIsolate ? width : step * i;
      const std::uint64_t w = place(splits ? e.children[i] : e, base + offset,
                                    std::min<int>(s + 1, kNested));
      width = op == Kind::kIsolate ? width + w : std::max(width, offset + w);
      if (plan != nullptr && s < kMembers) {
        close_part(s, i + 1 == parts, base + offset, w);
      }
    }
    if (plan != nullptr && s == kMembers && parts > 1) {
      std::ostringstream note;
      note << "tier " << tier << " group " << group << ": " << e.to_string()
           << " share a " << levels << "-level band fairly";
      plan->notes.push_back(note.str());
    }
    return width;
  }

  void emit(std::uint64_t base) {
    const TenantSpec& spec = *specs[plan->tenants.size()];
    TenantPlan tp;
    tp.tenant = spec.id;
    tp.name = spec.name;
    tp.tier = tier;
    tp.group = group;
    tp.index_in_group = member++;
    tp.transform = RankTransform(spec.declared_bounds, levels,
                                 static_cast<Rank>(base), /*stride=*/1);
    plan->tenants.push_back(std::move(tp));
  }

  /// A tier's band and, between parts, the '>>' or '>' guarantee.
  void close_part(int s, bool last, std::uint64_t base, std::uint64_t w) {
    const auto lo = static_cast<Rank>(base);
    const auto hi = static_cast<Rank>(base + w - 1);
    if (s == kTiers) plan->tier_bands.push_back(TierBand{lo, hi});
    if (last) return;
    std::ostringstream note;
    if (s == kTiers) {
      note << "tier " << tier << " strictly isolated above tier " << tier + 1
           << " (bands [" << lo << "," << hi << "] < [" << hi + 1
           << ", ...])";
    } else {
      note << "tier " << tier << ": group " << group
           << " preferred over group " << group + 1 << " (bias " << bias
           << " of " << levels << " levels, best-effort)";
    }
    plan->notes.push_back(note.str());
  }
};

}  // namespace

Synthesizer::Result Synthesizer::lay_out(
    const std::vector<TenantSpec>& tenants, const PolicyExpr& expr) const {
  const std::vector<std::string> names = expr.tenant_names();
  if (names.empty()) return {std::nullopt, "empty operator policy"};
  if (config_.rank_space == 0) return {std::nullopt, "rank space is empty"};
  std::vector<const TenantSpec*> specs;
  std::string error = match_tenant_names(names, tenants, &specs);
  if (!error.empty()) return {std::nullopt, std::move(error)};

  const auto walk = [&](std::uint32_t levels, SynthesisPlan* plan) {
    const std::uint32_t bias = config_.pref_bias != 0
                                   ? config_.pref_bias
                                   : std::max<std::uint32_t>(levels / 4, 1);
    return LayoutWalk{levels, bias, config_.share_stagger, specs, plan}
        .place(expr, 0, kTiers);
  };
  const auto fits = [&](std::uint64_t levels) {
    return walk(static_cast<std::uint32_t>(levels), nullptr) <=
           config_.rank_space;
  };
  SynthesisPlan plan;
  plan.rank_space = config_.rank_space;
  std::uint32_t levels = std::max<std::uint32_t>(config_.levels_per_group, 1);
  if (!fits(levels)) {
    // Degrade to the largest quantization that fits: the width grows
    // with the level count, so the counts that fit are a prefix.
    const std::uint64_t misfit = *std::ranges::partition_point(
        std::views::iota(std::uint64_t{1}, std::uint64_t{levels} + 1), fits);
    if (misfit == 1) {
      return {std::nullopt,
              "rank space too small even at 1 level per group (" +
                  std::to_string(config_.rank_space) + " available)"};
    }
    levels = static_cast<std::uint32_t>(misfit - 1);
    plan.degraded = true;
    std::ostringstream note;
    note << "degraded: quantization reduced from "
         << config_.levels_per_group << " to " << levels
         << " levels per group to fit rank space " << config_.rank_space;
    plan.notes.push_back(note.str());
  }
  walk(levels, &plan);
  return {std::move(plan), ""};
}

Synthesizer::Result Synthesizer::synthesize(
    const std::vector<TenantSpec>& tenants,
    const OperatorPolicy& policy) const {
  Result r = lay_out(tenants, from_flat_policy(policy));
  if (r.ok()) r.plan->policy = policy;
  return r;
}

}  // namespace qv::qvisor
