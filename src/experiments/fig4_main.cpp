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
// slower) and --reliable to the reliable pFabric transport.
// bench/fig_tables.py renders the Fig. 4a, Fig. 4b and EDF deadline
// tables from fig4_summary.json.
#include "experiments/sweeps.hpp"

int main(int argc, char** argv) {
  using namespace qv::experiments;
  GridCli cli("fig4", "workload RNG seed");
  cli.axis("scheme", "qvisor-pfabric",
           "fifo | pifo | pifo-ideal | qvisor-edf | qvisor-share | "
           "qvisor-pfabric | all, or a comma-separated list",
           slugs(fig4_all_schemes(), fig4_scheme_slug));
  cli.loads(0.5, "pFabric tenant access-link load");
  cli.obs(/*simulator=*/true);
  cli.flags().define_bool(
      "paper-topo", false,
      "paper-scale 144-host fabric instead of the scaled one");
  cli.flags().define_bool(
      "reliable", false,
      "reliable pFabric transport: small priority-drop buffers, ACKs "
      "and timeout retransmission");
  if (!cli.parse(argc, argv)) return cli.status();

  Fig4SweepConfig sweep;
  sweep.base = cli.flags().get_bool("paper-topo") ? fig4_paper_config()
                                                  : fig4_scaled_config();
  sweep.base.reliable = cli.flags().get_bool("reliable");
  sweep.schemes = cli.pick(fig4_all_schemes());
  cli.apply(sweep);
  return cli.report(run_fig4_sweep(sweep));
}
