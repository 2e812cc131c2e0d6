// chaos: run the fault-injection harness over a seed grid and emit each
// cell's artifacts:
//
//   chaos[_s<seed>]_metrics.json  the full metrics registry (fault
//                                 counters, rollbacks/retries/
//                                 reconciles, conservation)
//   chaos[_s<seed>]_trace.json    Chrome trace-event timeline: link
//                                 outage spans, install failures,
//                                 rollbacks, reconciles, degraded
//                                 enter/exit (runtime category)
//   chaos_summary.json            the whole grid, in grid order
//
// Seeds fan across cores (--jobs, default hardware_concurrency); every
// artifact except trace.json is byte-identical for every --jobs value.
// Exits non-zero when any seed's invariant fails, so CI can run the
// whole former seed-matrix as ONE invocation.
#include "experiments/sweeps.hpp"

int main(int argc, char** argv) {
  using namespace qv::experiments;
  GridCli cli("chaos", "fault-schedule RNG seed");
  cli.obs(/*simulator=*/false);
  cli.flags().define_bool("faults", true,
                          "arm the random data-plane faults");
  cli.flags().define_bool("control-faults", true,
                          "inject the install-fault window + agent reboot");
  if (!cli.parse(argc, argv)) return cli.status();

  ChaosSweepConfig sweep;
  sweep.base.faults = cli.flags().get_bool("faults");
  sweep.base.control_faults = cli.flags().get_bool("control-faults");
  cli.apply(sweep);
  return cli.report(run_chaos_sweep(sweep), "INVARIANT VIOLATED");
}
