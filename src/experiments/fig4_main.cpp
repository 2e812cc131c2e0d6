// fig4: run the paper's Fig. 4 evaluation — one (scheme, load) point
// or a schemes x loads x seeds grid — on the scaled-down leaf-spine
// topology and emit each cell's artifacts:
//
//   fig4_<scheme>[_l<load%>][_s<seed>]_flows.csv     pFabric flow records
//   fig4_<scheme>[_l<load%>][_s<seed>]_metrics.json  metrics registry
//   fig4_<scheme>[_l<load%>][_s<seed>]_trace.json    timeline (Perfetto)
//   fig4_summary.json                                grid, in grid order
//
// The grid fans across cores (--jobs); output is byte-identical for
// every --jobs value, trace.json included, unless --trace-sim adds the
// simulator's dispatch spans (their durations are wall-clock). fig2
// and chaos keep trace.json out of that contract: their runtime
// recompile spans carry wall-clock durations. See fig2_main.cpp for the
// tracing flags; --paper-topo switches to the paper-scale fabric (much
// slower).
#include <cstdio>
#include <string>

#include "experiments/sweeps.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  qv::Flags flags;
  flags.define_string(
      "scheme", "qvisor-pfabric",
      "fifo | pifo | pifo-ideal | qvisor-edf | qvisor-share | "
      "qvisor-pfabric | all");
  flags.define_double("load", 0.5, "pFabric tenant access-link load");
  flags.define_string("loads", "",
                      "comma-separated load list (grid axis); overrides "
                      "--load");
  flags.define_string("seeds", "", "comma-separated seed list (grid axis); "
                      "overrides --seed");
  flags.define_string("out", ".", "output directory for run artifacts");
  flags.define_int("seed", 1, "workload RNG seed");
  flags.define_int("jobs", 0,
                   "parallel runs (0 = hardware concurrency, 1 = serial; "
                   "output is byte-identical either way)");
  flags.define_bool("paper-topo", false,
                    "paper-scale 144-host fabric instead of the scaled one");
  flags.define_int("sample-interval-us", 100,
                   "periodic sampler cadence (simulated microseconds)");
  flags.define_int("trace-capacity", 1 << 16,
                   "trace ring capacity (events; oldest overwritten)");
  flags.define_bool("trace", true, "emit the timeline trace at all");
  flags.define_bool("trace-sim", false,
                    "also trace simulator event dispatch (voluminous)");
  if (!flags.parse(argc, argv)) return 1;
  if (flags.help_requested()) return 0;

  qv::experiments::Fig4SweepConfig sweep;
  sweep.base = flags.get_bool("paper-topo")
                   ? qv::experiments::fig4_paper_config()
                   : qv::experiments::fig4_scaled_config();
  const std::string scheme = flags.get_string("scheme");
  if (scheme == "all") {
    sweep.schemes = qv::experiments::fig4_all_schemes();
  } else {
    qv::experiments::Fig4Scheme one;
    if (!qv::experiments::parse_fig4_scheme(scheme, &one)) {
      std::fprintf(stderr, "fig4: unknown --scheme '%s'\n", scheme.c_str());
      return 1;
    }
    sweep.schemes = {one};
  }
  if (!flags.get_string("loads").empty()) {
    bool ok = false;
    sweep.loads =
        qv::experiments::parse_double_list(flags.get_string("loads"), &ok);
    if (!ok) {
      std::fprintf(stderr, "fig4: bad --loads '%s'\n",
                   flags.get_string("loads").c_str());
      return 1;
    }
  } else {
    sweep.loads = {flags.get_double("load")};
  }
  if (!flags.get_string("seeds").empty()) {
    bool ok = false;
    sweep.seeds =
        qv::experiments::parse_u64_list(flags.get_string("seeds"), &ok);
    if (!ok) {
      std::fprintf(stderr, "fig4: bad --seeds '%s'\n",
                   flags.get_string("seeds").c_str());
      return 1;
    }
  } else {
    sweep.seeds = {static_cast<std::uint64_t>(flags.get_int("seed"))};
  }
  sweep.out_dir = flags.get_string("out");
  sweep.jobs = static_cast<std::size_t>(flags.get_int("jobs"));
  sweep.obs.trace = flags.get_bool("trace");
  sweep.obs.trace_sim = flags.get_bool("trace-sim");
  sweep.obs.trace_capacity =
      static_cast<std::size_t>(flags.get_int("trace-capacity"));
  sweep.obs.sample_interval_us = flags.get_int("sample-interval-us");

  const auto cells = qv::experiments::run_fig4_sweep(sweep);
  for (const auto& cell : cells) {
    if (!cell.log.empty()) std::fputs(cell.log.c_str(), stderr);
    std::fputs(cell.summary.c_str(), stdout);
  }
  return 0;
}
