// Fuzz harness for the policy front-end (ISSUE 4 satellite): the one
// place QVISOR consumes operator-typed text, so the one place malformed
// input can reach the control plane. One input exercises the whole
// pipeline:
//
//   parse_policy / parse_policy_expr      (must never crash / hang)
//   canonical round-trip                  to_string -> reparse -> equal
//   flat <-> expression round-trip        to_flat_policy / from_flat_policy
//   synthesis (<= 64 tenants)             plan construction at fuzzed names
//   flattening (<= 64 tenants)            the same band layout over any
//                                         expression: one plan per tenant,
//                                         the analyzer's range/monotonicity/
//                                         tier-isolation checks, and a flat
//                                         expression's plan == synthesize's
//   static analysis of the plan           worst-case checks on the result
//   parse_grouped_policy (ISSUE 7)        group syntax round-trip + the
//                                         compiled index/table invariants
//
// Two build modes:
//  * -DQVISOR_LIBFUZZER (clang, -fsanitize=fuzzer):
//    LLVMFuzzerTestOneInput for coverage-guided fuzzing.
//  * default: a standalone driver that replays every corpus file given
//    on the command line and then runs `--iters N` deterministic
//    seeded mutations of them (the CI smoke; no clang required).
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "control/group_compiler.hpp"
#include "control/group_policy.hpp"
#include "qvisor/hierarchy.hpp"
#include "qvisor/policy.hpp"
#include "qvisor/policy_ast.hpp"
#include "qvisor/static_analysis.hpp"
#include "qvisor/synthesizer.hpp"

namespace {

using namespace qv::qvisor;

void dump(const char* label, const std::string& text) {
  std::fprintf(stderr, "  %s (%zu bytes): ", label, text.size());
  for (const unsigned char c : text) {
    if (c >= 0x20 && c < 0x7f) {
      std::fputc(c, stderr);
    } else {
      std::fprintf(stderr, "\\x%02x", c);
    }
  }
  std::fputc('\n', stderr);
}

const std::string* g_current_input = nullptr;

void check(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "policy_parser_fuzz: invariant failed: %s\n", what);
    if (g_current_input != nullptr) dump("input", *g_current_input);
    __builtin_trap();
  }
}

std::vector<qv::qvisor::TenantSpec> specs_for(
    const std::vector<std::string>& names) {
  std::vector<TenantSpec> specs;
  specs.reserve(names.size());
  qv::TenantId id = 1;
  for (const auto& name : names) {
    TenantSpec s;
    s.id = id++;
    s.name = name;
    s.declared_bounds = {0, 100};
    specs.push_back(std::move(s));
  }
  return specs;
}

/// Grouped policy language (ISSUE 7): parse, canonical round-trip, and
/// — for small-enough inputs — the compiled artifact's invariants.
void fuzz_grouped(const std::string& text) {
  namespace ctl = qv::control;
  const ctl::GroupedPolicyParseResult parsed =
      ctl::parse_grouped_policy(text);
  if (!parsed.ok()) {
    check(!parsed.error.empty(), "grouped parse failed without an error");
    check(parsed.error_pos <= text.size(),
          "grouped error_pos out of range");
    return;
  }
  const std::string canon = parsed.value->to_string();
  const ctl::GroupedPolicyParseResult again =
      ctl::parse_grouped_policy(canon);
  check(again.ok(), "canonical grouped policy failed to reparse");
  check(*again.value == *parsed.value, "grouped round-trip changed policy");

  // Compile only bounded inputs: the dense index is O(max declared id),
  // so a fuzzer that types "0..4294967294" must not cost gigabytes.
  const auto& groups = parsed.value->groups;
  if (groups.empty() || groups.size() > 64) return;
  for (const auto& g : groups) {
    for (const auto& s : g.spans) {
      if (s.hi >= 65'536) return;
    }
  }
  const ctl::GroupCompiler compiler;
  const auto compiled = compiler.compile(*parsed.value);
  if (!compiled.ok()) {
    check(!compiled.error.empty(), "group compile failed without an error");
    return;
  }
  const ctl::CompiledGroupPlan& plan = *compiled.plan;
  check(plan.group_count() == groups.size(),
        "compiled table is not group-sized");
  check(plan.fingerprints.size() == groups.size(),
        "fingerprint per group missing");
  check(plan.index != nullptr, "compiled plan lost its index");
  // Every declared id resolves to its own group's ordinal.
  for (std::uint32_t g = 0; g < groups.size(); ++g) {
    for (const auto& s : groups[g].spans) {
      check(plan.index->lookup(s.lo) == g, "span lo resolves elsewhere");
      check(plan.index->lookup(s.hi) == g, "span hi resolves elsewhere");
    }
  }
  // A plan diffs empty against itself, and its canonical source
  // recompiles to the same fingerprints.
  check(ctl::diff_group_plans(plan, plan).empty(),
        "plan diffs non-empty against itself");
  const auto recompiled = compiler.compile_text(plan.source);
  check(recompiled.ok(), "canonical source failed to recompile");
  check(recompiled.plan->fingerprints == plan.fingerprints,
        "canonical source changed the compiled fingerprints");
  check(recompiled.plan->index->fingerprint() == plan.index->fingerprint(),
        "canonical source changed the membership index");
}

void fuzz_one(const std::uint8_t* data, std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  g_current_input = &text;

  fuzz_grouped(text);

  // Flat §3.1 grammar: success implies an exact canonical round-trip.
  const PolicyParseResult flat = parse_policy(text);
  if (flat.ok()) {
    const std::string canon = flat.policy->to_string();
    const PolicyParseResult again = parse_policy(canon);
    check(again.ok(), "canonical flat policy failed to reparse");
    check(*again.policy == *flat.policy, "flat round-trip changed policy");
  } else {
    check(!flat.error.empty(), "flat parse failed without an error");
    check(flat.error_pos <= text.size(), "flat error_pos out of range");
  }

  // Expression grammar: round-trip, then flat conversion round-trip.
  const ExprParseResult expr = parse_policy_expr(text);
  if (!expr.ok()) {
    check(!expr.error.empty(), "expr parse failed without an error");
    check(expr.error_pos <= text.size(), "expr error_pos out of range");
    return;
  }
  const std::string canon = expr.expr->to_string();
  const ExprParseResult again = parse_policy_expr(canon);
  check(again.ok(), "canonical expression failed to reparse");
  check(*again.expr == *expr.expr, "expression round-trip changed tree");

  const auto as_flat = to_flat_policy(*expr.expr);
  if (as_flat) {
    const PolicyExpr lifted = from_flat_policy(*as_flat);
    const auto reflat = to_flat_policy(lifted);
    check(reflat.has_value(), "lifted flat policy stopped being flat");
    check(*reflat == *as_flat, "flat<->expr round-trip changed policy");
  }

  // Layout + static analysis on anything of sane size. Both must
  // terminate and never crash, whatever the fuzzer named the tenants.
  const auto names = expr.expr->tenant_names();
  if (names.empty() || names.size() > 64) return;
  const auto specs = specs_for(names);
  const FlattenResult flattened = flatten_to_plan(*expr.expr, specs);
  if (!flattened.ok()) {
    check(!flattened.error.empty(), "flattening failed without an error");
  } else {
    check(flattened.plan->tenants.size() == names.size(),
          "flattened plan is not one TenantPlan per tenant");
    for (const auto& name : names) {
      check(flattened.plan->find(name) != nullptr,
            "flattening lost a tenant");
    }
    const auto report = StaticAnalyzer().analyze(*flattened.plan, specs);
    for (const auto& f : report.findings) {
      check(f.severity != CheckSeverity::kViolation ||
                (f.check != "range" && f.check != "monotonicity" &&
                 f.check != "tier-isolation"),
            "flattened plan fails a worst-case check");
    }
  }
  if (as_flat) {
    const auto result = Synthesizer().synthesize(specs, *as_flat);
    check(result.ok() == flattened.ok(), "flattening and synthesis disagree");
    if (result.ok()) {
      check(*flattened.plan == *result.plan,
            "flat expression flattened to a different plan");
      const auto report = StaticAnalyzer().analyze(*result.plan, specs);
      check(!report.has_violations(),
            "synthesizer emitted a plan its own analyzer rejects");
    }
  }
}

}  // namespace

#ifdef QVISOR_LIBFUZZER

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  fuzz_one(data, size);
  return 0;
}

#else  // standalone corpus-replay + deterministic-mutation driver

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "util/random.hpp"

namespace {

std::string mutate(const std::string& seed, qv::Rng& rng) {
  std::string out = seed;
  const int edits = 1 + static_cast<int>(rng.next_below(4));
  static const char kAlphabet[] = ">+*()_- \tT123abcXYZ\n\0#=.,gw";
  for (int e = 0; e < edits; ++e) {
    const std::uint64_t op = rng.next_below(3);
    const char c = kAlphabet[rng.next_below(sizeof(kAlphabet))];
    if (out.empty() || op == 0) {  // insert
      out.insert(
          out.begin() +
              static_cast<std::ptrdiff_t>(rng.next_below(out.size() + 1)),
          c);
    } else if (op == 1) {  // overwrite
      out[rng.next_below(out.size())] = c;
    } else {  // delete
      out.erase(out.begin() +
                static_cast<std::ptrdiff_t>(rng.next_below(out.size())));
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> corpus;
  long iters = 20'000;
  std::uint64_t seed = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
      iters = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else {
      std::ifstream in(argv[i], std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "policy_parser_fuzz: cannot open %s\n", argv[i]);
        return 2;
      }
      corpus.emplace_back(std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>());
    }
  }
  if (corpus.empty()) {
    // Built-in seeds so the smoke works with no corpus on disk.
    corpus = {"T1 >> T2 > T3 + T4 >> T5",
              "(A >> B) + C * 2 > D",
              "gold >> silver + bronze",
              "group a = 0..9 weight 2 bounds 0..99\ngroup b = *\n"
              "policy a >> b\n",
              ""};
  }

  for (const auto& input : corpus) {
    fuzz_one(reinterpret_cast<const std::uint8_t*>(input.data()),
             input.size());
  }
  qv::Rng rng(seed);
  for (long i = 0; i < iters; ++i) {
    const auto& base = corpus[rng.next_below(corpus.size())];
    const std::string mutated = mutate(base, rng);
    fuzz_one(reinterpret_cast<const std::uint8_t*>(mutated.data()),
             mutated.size());
  }
  std::printf("policy_parser_fuzz: %zu corpus inputs + %ld mutations OK\n",
              corpus.size(), iters);
  return 0;
}

#endif  // QVISOR_LIBFUZZER
