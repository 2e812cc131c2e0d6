// dataplane_chaos: run the dataplane fault-domain harness over a
// fault-kind x seed grid and emit each cell's artifacts:
//
//   dpchaos_<kind>[_s<seed>]_metrics.json  the faulted run's registry
//                                          (books, stage histograms,
//                                          dataplane.supervisor.*)
//   dpchaos_<kind>[_s<seed>]_trace.json    Perfetto/Chrome trace-event
//                                          timeline: one span per
//                                          checkpoint restore, one
//                                          instant per quarantine
//   dpchaos_summary.json                   the whole grid, grid order
//
// Cells fan across cores (--jobs); exits non-zero when any cell's
// fault-domain contract fails (unbalanced books, supervision overhead
// on the fault-free path, unbounded loss, slow recovery, or a fault
// kind that never fired), so CI runs the matrix as ONE invocation.
#include "experiments/dataplane_chaos.hpp"

int main(int argc, char** argv) {
  using namespace qv::experiments;
  GridCli cli("dataplane_chaos", "dataplane + fault-schedule RNG seed");
  cli.axis("kinds", "",
           "comma-separated fault kinds "
           "(stall,crash,poison,desync,random) or all; default all",
           slugs(dataplane_all_fault_kinds(), dataplane_fault_kind_slug));
  cli.flags().define_int("packets", 0,
                         "packets per port (0 = harness default)");
  if (!cli.parse(argc, argv)) return cli.status();

  DataplaneChaosSweepConfig sweep;
  sweep.kinds = cli.pick(dataplane_all_fault_kinds());
  if (cli.flags().get_int("packets") > 0) {
    sweep.base.base.packets_per_port =
        static_cast<std::uint64_t>(cli.flags().get_int("packets"));
  }
  cli.apply(sweep);
  return cli.report(run_dataplane_chaos_sweep(sweep), "CONTRACT VIOLATED");
}
