// rollout_chaos: run the management-plane rollout harness over a
// fault-kind x seed grid and emit each cell's artifacts:
//
//   rollout_<kind>[_s<seed>]_metrics.json  fleet + control-plane +
//                                          store registries at the end
//                                          of the run
//   rollout_<kind>[_s<seed>]_trace.json    Perfetto/Chrome trace-event
//                                          timeline of waves, probes,
//                                          aborts and reconciles
//   rollout_<kind>[_s<seed>]_store/        the cell's config store
//                                          (journal + snapshot)
//   rollout_chaos_summary.json             the whole grid, grid order
//
// Cells fan across cores (--jobs); exits non-zero when any cell's
// rollout contract fails (mixed-version fleet, fleet off last-known-
// good, canary gate bypassed, a lost acked store version, or packets
// scheduled under a half-installed plan), so CI runs the matrix as ONE
// invocation.
#include "experiments/rollout_chaos.hpp"

int main(int argc, char** argv) {
  using namespace qv::experiments;
  GridCli cli("rollout_chaos", "fault-schedule + probe-workload RNG seed");
  cli.axis("kinds", "",
           "comma-separated fault kinds (clean,unreachable,canary-slo,"
           "store-crash,random) or all; default all",
           slugs(rollout_all_fault_kinds(), rollout_fault_kind_slug));
  cli.flags().define_int("switches", 0,
                         "simulated fleet size (0 = harness default, 200)");
  if (!cli.parse(argc, argv)) return cli.status();

  RolloutChaosSweepConfig sweep;
  sweep.kinds = cli.pick(rollout_all_fault_kinds());
  if (cli.flags().get_int("switches") > 0) {
    sweep.base.switches =
        static_cast<std::size_t>(cli.flags().get_int("switches"));
  }
  cli.apply(sweep);
  return cli.report(run_rollout_chaos_sweep(sweep), "CONTRACT VIOLATED");
}
