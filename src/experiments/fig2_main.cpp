// fig2: run the paper's Fig. 2 scenario — one scheme, a list of
// schemes, or the whole grid crossed with a seed list — and emit each
// cell's artifacts next to each other in --out:
//
//   fig2_<scheme>[_s<seed>]_flows.csv    per-flow records
//   fig2_<scheme>[_s<seed>]_metrics.json the full metrics registry
//   fig2_<scheme>[_s<seed>]_trace.json   Chrome trace-event timeline
//   fig2_summary.json                    the whole grid, in grid order
//
// The grid fans across cores (--jobs, default hardware_concurrency);
// artifacts and summaries are byte-identical for every --jobs value
// (trace.json excepted: its span durations record wall-clock handler
// cost by design). Simulator dispatch spans are the bulk of a trace,
// so the `sim` category is opt-in via --trace-sim; --no-trace disables
// the timeline entirely. bench/fig_tables.py renders the Fig. 2 table
// from fig2_summary.json. The shared flags are experiments/grid.hpp's.
#include "experiments/sweeps.hpp"

int main(int argc, char** argv) {
  using namespace qv::experiments;
  GridCli cli("fig2", "workload RNG seed");
  cli.axis("scheme", "qvisor-adapt",
           "fifo | pifo | qvisor | qvisor-adapt | all, or a "
           "comma-separated list",
           slugs(fig2_all_schemes(), fig2_scheme_slug));
  cli.obs(/*simulator=*/true);
  if (!cli.parse(argc, argv)) return cli.status();

  Fig2SweepConfig sweep;
  sweep.schemes = cli.pick(fig2_all_schemes());
  cli.apply(sweep);
  return cli.report(run_fig2_sweep(sweep));
}
