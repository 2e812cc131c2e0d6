// End-to-end simulation-core bench: run one fig4 (scheme, load) cell on
// a chosen engine — the overhauled core (timing wheel + coalesced link
// drains) or the per-event reference — and report events/sec plus the
// wheel/coalescing diagnostics as one JSON object on stdout.
//
// Not a google-benchmark binary: the measured unit is a whole
// experiment run, so the driver (run_benchmarks.py --simcore) invokes
// the two engines back to back per pair and aggregates PAIRED ratios
// (a machine-speed epoch hits both sides of a pair and cancels; see
// EXPERIMENTS.md on single-core noise).
//
// The JSON carries a `result` fingerprint — every deterministic output
// of the run, doubles printed with %.17g so equality is bit-equality.
// The driver asserts the fingerprint is identical across engines on
// every pair: each timing sample doubles as a correctness check.
//
// --artifacts DIR instead runs the same cell through run_fig4_sweep,
// writing the real artifacts (flows.csv, metrics.json, summary JSON)
// into DIR for the driver's mandatory byte-compare across engines.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "experiments/fig4.hpp"
#include "experiments/sweeps.hpp"
#include "util/flags.hpp"

using namespace qv;
using namespace qv::experiments;

int main(int argc, char** argv) {
  Flags flags;
  flags.define_string("scheme", "qvisor-share",
                      "fig4 scheme slug (see fig4_all_schemes)");
  flags.define_double("load", 0.7, "pFabric tenant access-link load");
  flags.define_int("seed", 1, "workload seed");
  flags.define_bool("per-event", false,
                    "run on the per-event reference engine (heap "
                    "ordering, one event per link sub-step) instead of "
                    "the overhauled core");
  flags.define_string("artifacts", "",
                      "instead of timing, run the cell as a one-cell "
                      "sweep writing flows.csv/metrics.json/summary "
                      "into this directory (byte-compare mode)");
  if (!flags.parse(argc, argv)) return 1;
  if (flags.help_requested()) return 0;

  const std::vector<Fig4Scheme> schemes = fig4_all_schemes();
  std::vector<std::size_t> picked;
  if (!parse_axis(flags.get_string("scheme"),
                  slugs(schemes, fig4_scheme_slug), &picked) ||
      picked.size() != 1) {
    std::fprintf(stderr, "bench_simcore: --scheme takes one slug, got '%s'\n",
                 flags.get_string("scheme").c_str());
    return 1;
  }
  const Fig4Scheme scheme = schemes[picked.front()];
  const bool per_event = flags.get_bool("per-event");

  Fig4Config cfg = fig4_scaled_config();
  cfg.scheme = scheme;
  cfg.load = flags.get_double("load");
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  cfg.per_event_simcore = per_event;

  if (!flags.get_string("artifacts").empty()) {
    Fig4SweepConfig sweep;
    sweep.base = cfg;
    sweep.schemes = {scheme};
    sweep.loads = {cfg.load};
    sweep.seeds = {cfg.seed};
    sweep.out_dir = flags.get_string("artifacts");
    sweep.jobs = 1;
    const auto cells = run_fig4_sweep(sweep);
    const bool ok = cells.size() == 1 && cells[0].ok;
    std::printf("{\"engine\":\"%s\",\"artifacts\":\"%s\",\"ok\":%s}\n",
                per_event ? "per_event_reference" : "overhauled",
                sweep.out_dir.c_str(), ok ? "true" : "false");
    return ok ? 0 : 1;
  }

  const auto start = std::chrono::steady_clock::now();
  const Fig4Result r = run_fig4(cfg);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start)
          .count();

  std::printf(
      "{\"config\":{\"scheme\":\"%s\",\"load\":%g,\"seed\":%llu,"
      "\"engine\":\"%s\"},"
      "\"wall_seconds\":%.6f,\"events\":%llu,\"events_per_sec\":%.1f,"
      "\"wheel\":{\"scheduled_wheel\":%llu,\"scheduled_heap\":%llu,"
      "\"migrated_from_heap\":%llu,\"migrated_wheel_levels\":%llu,"
      "\"rotations\":%llu,\"peak_live\":%llu},"
      "\"events_replayed\":%llu,"
      "\"result\":{\"mean_small_ms\":%.17g,\"p99_small_ms\":%.17g,"
      "\"small_flows\":%zu,\"small_incomplete\":%zu,"
      "\"mean_small_lb_ms\":%.17g,\"mean_large_ms\":%.17g,"
      "\"large_flows\":%zu,\"large_incomplete\":%zu,"
      "\"mean_large_lb_ms\":%.17g,\"mean_all_ms\":%.17g,"
      "\"all_flows\":%zu,\"edf_deadline_met\":%.17g,\"drops\":%llu,"
      "\"events\":%llu}}\n",
      fig4_scheme_slug(scheme), cfg.load,
      static_cast<unsigned long long>(cfg.seed),
      per_event ? "per_event_reference" : "overhauled", wall,
      static_cast<unsigned long long>(r.events), r.events / wall,
      static_cast<unsigned long long>(r.wheel.scheduled_wheel),
      static_cast<unsigned long long>(r.wheel.scheduled_heap),
      static_cast<unsigned long long>(r.wheel.migrated_from_heap),
      static_cast<unsigned long long>(r.wheel.migrated_wheel_levels),
      static_cast<unsigned long long>(r.wheel.rotations),
      static_cast<unsigned long long>(r.wheel.peak_live),
      static_cast<unsigned long long>(r.events_replayed), r.mean_small_ms,
      r.p99_small_ms, r.small_flows, r.small_incomplete, r.mean_small_lb_ms,
      r.mean_large_ms, r.large_flows, r.large_incomplete, r.mean_large_lb_ms,
      r.mean_all_ms, r.all_flows, r.edf_deadline_met,
      static_cast<unsigned long long>(r.drops),
      static_cast<unsigned long long>(r.events));
  return 0;
}
