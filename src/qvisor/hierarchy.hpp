// Deploying hierarchical policies (paper §5 "Increasing specification
// expressivity"). A PolicyExpr can be realized two ways:
//
//  * EXACTLY, on a PIFO-tree scheduler: '>>' becomes a strict node,
//    '+' a weighted-fair node (weights honoured), '>' a weighted-fair
//    node with a geometric weight bias (best-effort preference), and
//    each tenant a rank-ordered leaf. No rank transformation needed —
//    the tree itself virtualizes the scheduler.
//
//  * APPROXIMATELY, flattened onto a single rank space for commodity
//    PIFO/SP-PIFO hardware: the synthesizer's one band-layout walk
//    (Synthesizer::lay_out) composes `>>`, `>` and `+` at every depth,
//    and everything the projection loses is reported in
//    `approximations` — the paper's §5 vision of a synthesizer that
//    "would not just fail ... but propose partial specifications
//    implementable on the available resources".
//
// Both deployments share the synthesizer's name check
// (match_tenant_names): the specs and the expression name the same
// tenants, each once.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "qvisor/policy_ast.hpp"
#include "qvisor/synthesizer.hpp"
#include "sched/pifo_tree.hpp"

namespace qv::qvisor {

struct TreeCompileResult {
  std::optional<sched::PifoTreeSpec> spec;
  std::map<std::string, std::size_t> leaf_of;  ///< tenant -> leaf index
  std::vector<std::string> notes;
  std::string error;

  bool ok() const { return spec.has_value(); }
};

class TreeCompiler {
 public:
  /// `prefer_weight_ratio` R realizes '>' as WFQ with geometric weights
  /// (R^k for the k-th-from-last group): preferred groups get most of
  /// the bandwidth but cannot starve the others — best-effort priority.
  explicit TreeCompiler(double prefer_weight_ratio = 4.0);

  /// Every tenant in `expr` must appear in `tenants` and vice versa.
  TreeCompileResult compile(const PolicyExpr& expr,
                            const std::vector<TenantSpec>& tenants) const;

 private:
  double prefer_ratio_;
};

/// Instantiate a scheduler from a compile result: packets are
/// classified to leaves by tenant id. Unknown tenants go to the last
/// leaf (best effort).
std::unique_ptr<sched::Scheduler> make_tree_scheduler(
    const TreeCompileResult& compiled,
    const std::vector<TenantSpec>& tenants,
    std::int64_t buffer_bytes = 0);

struct FlattenResult {
  std::optional<SynthesisPlan> plan;
  /// Semantics the flattening could not preserve (weights, nested
  /// ordering across sharing boundaries, ...).
  std::vector<std::string> approximations;
  std::string error;

  bool ok() const { return plan.has_value(); }
};

/// Project a hierarchical expression onto a single-PIFO synthesis plan
/// with Synthesizer::lay_out: a flat expression gets exactly the
/// synthesizer's plan. Positions follow the flat language's strata:
/// `tier` is the top-level `>>` part holding the tenant, `group` that
/// tier's `>` part, `index_in_group` its place among the group's
/// tenants. `approximations` lists a degraded quantization and what
/// flattening loses (weights, nesting inside `+`); any approximation
/// marks the plan degraded, and the losses join its notes.
FlattenResult flatten_to_plan(const PolicyExpr& expr,
                              const std::vector<TenantSpec>& tenants,
                              const SynthesizerConfig& config = {});

}  // namespace qv::qvisor
