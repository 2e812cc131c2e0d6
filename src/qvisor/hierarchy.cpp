#include "qvisor/hierarchy.hpp"

#include <cassert>
#include <cmath>
#include <sstream>
#include <unordered_map>

namespace qv::qvisor {

// --- tree compilation -----------------------------------------------------

TreeCompiler::TreeCompiler(double prefer_weight_ratio)
    : prefer_ratio_(prefer_weight_ratio) {
  assert(prefer_weight_ratio > 1.0);
}

namespace {

/// Recursively lower a PolicyExpr into a PifoTreeSpec node, assigning
/// leaf indices left to right.
sched::PifoTreeSpec::Node lower(const PolicyExpr& expr,
                                double prefer_ratio,
                                std::map<std::string, std::size_t>& leaf_of,
                                std::size_t& next_leaf,
                                std::vector<std::string>& notes) {
  sched::PifoTreeSpec::Node node;
  node.weight = expr.weight;
  switch (expr.kind) {
    case PolicyExpr::Kind::kTenant:
      node.policy = sched::PifoTreeSpec::NodePolicy::kLeaf;
      node.label = expr.tenant;
      leaf_of[expr.tenant] = next_leaf++;
      return node;
    case PolicyExpr::Kind::kIsolate:
      node.policy = sched::PifoTreeSpec::NodePolicy::kStrict;
      node.label = "isolate";
      break;
    case PolicyExpr::Kind::kShare:
      node.policy = sched::PifoTreeSpec::NodePolicy::kWfq;
      node.label = "share";
      break;
    case PolicyExpr::Kind::kPrefer: {
      node.policy = sched::PifoTreeSpec::NodePolicy::kWfq;
      node.label = "prefer";
      std::ostringstream note;
      note << "'>' realized as weighted sharing with ratio "
           << prefer_ratio << " per step (best-effort preference)";
      notes.push_back(note.str());
      break;
    }
  }
  for (const auto& child : expr.children) {
    node.children.push_back(
        lower(child, prefer_ratio, leaf_of, next_leaf, notes));
  }
  if (expr.kind == PolicyExpr::Kind::kPrefer) {
    // Geometric weights: earlier children preferred.
    const std::size_t n = node.children.size();
    for (std::size_t i = 0; i < n; ++i) {
      node.children[i].weight *=
          std::pow(prefer_ratio, static_cast<double>(n - 1 - i));
    }
  }
  return node;
}

}  // namespace

TreeCompileResult TreeCompiler::compile(
    const PolicyExpr& expr, const std::vector<TenantSpec>& tenants) const {
  TreeCompileResult result;

  result.error = match_tenant_names(expr.tenant_names(), tenants);
  if (!result.error.empty()) return result;

  sched::PifoTreeSpec spec;
  std::size_t next_leaf = 0;
  spec.root =
      lower(expr, prefer_ratio_, result.leaf_of, next_leaf, result.notes);
  result.notes.push_back("hierarchy deployed exactly on a PIFO tree with " +
                         std::to_string(next_leaf) + " leaves");
  result.spec = std::move(spec);
  return result;
}

std::unique_ptr<sched::Scheduler> make_tree_scheduler(
    const TreeCompileResult& compiled,
    const std::vector<TenantSpec>& tenants, std::int64_t buffer_bytes) {
  assert(compiled.ok());
  // Dense tenant-id -> leaf map for the per-packet classifier.
  std::unordered_map<TenantId, std::size_t> leaf_by_id;
  for (const auto& spec : tenants) {
    const auto it = compiled.leaf_of.find(spec.name);
    if (it != compiled.leaf_of.end()) leaf_by_id[spec.id] = it->second;
  }
  const std::size_t fallback = compiled.spec->leaf_count() - 1;
  auto classify = [leaf_by_id, fallback](const Packet& p) -> std::size_t {
    const auto it = leaf_by_id.find(p.tenant);
    return it == leaf_by_id.end() ? fallback : it->second;
  };
  return std::make_unique<sched::PifoTreeQueue>(*compiled.spec,
                                                std::move(classify),
                                                buffer_bytes);
}

// --- flattening -------------------------------------------------------------

namespace {

/// What a single rank space cannot express, in walk order: weights, and
/// nested structure inside a '+' group.
void report_losses(const PolicyExpr& expr, std::vector<std::string>& out) {
  if (expr.weight != 1.0) {
    out.push_back("weight of " +
                  (expr.is_leaf() ? "tenant '" + expr.tenant + "'"
                                  : "'" + expr.to_string() + "'") +
                  " ignored by flattening (single PIFO cannot weight "
                  "shares; deploy on a PIFO tree to honour it)");
  }
  if (expr.is_leaf()) return;
  bool nested = false;
  for (const auto& child : expr.children) {
    report_losses(child, out);
    nested = nested || !child.is_leaf();
  }
  if (expr.kind == PolicyExpr::Kind::kShare && nested) {
    out.push_back(
        "nested structure inside a '+' group flattened onto one shared "
        "band: its internal ordering now competes with the other sharers' "
        "ranks instead of being served as a unit");
  }
}

}  // namespace

FlattenResult flatten_to_plan(const PolicyExpr& expr,
                              const std::vector<TenantSpec>& tenants,
                              const SynthesizerConfig& config) {
  FlattenResult result;
  auto laid = Synthesizer(config).lay_out(tenants, expr);
  if (!laid.ok()) {
    result.error = std::move(laid.error);
    return result;
  }
  SynthesisPlan& plan = *laid.plan;
  if (plan.degraded) result.approximations.push_back(plan.notes.front());
  const std::size_t walk_notes = result.approximations.size();
  report_losses(expr, result.approximations);
  plan.notes.insert(plan.notes.end(),
                    result.approximations.begin() + walk_notes,
                    result.approximations.end());
  plan.degraded = !result.approximations.empty();
  if (auto flat = to_flat_policy(expr)) plan.policy = std::move(*flat);
  result.plan = std::move(laid.plan);
  return result;
}

}  // namespace qv::qvisor
