// overload: run the adversarial-tenant harness over a modes x seeds
// grid and emit each cell's artifacts:
//
//   overload_<mode>[_s<seed>]_metrics.json  metrics registry of the
//                                           attack run (per-tenant
//                                           admission counters, monitor
//                                           observations, quarantines)
//   overload_<mode>[_s<seed>]_trace.json    timeline: admission throttle
//                                           engaging, verdict
//                                           escalations, quarantine
//                                           instants
//   overload_summary.json                   the whole grid, grid order
//
// Cells fan across cores (--jobs); every artifact except trace.json is
// byte-identical for every --jobs value. Exits non-zero when any
// cell's isolation contract fails, so CI can run the whole former
// mode x seed matrix as ONE invocation.
#include "experiments/sweeps.hpp"

int main(int argc, char** argv) {
  using namespace qv::experiments;
  GridCli cli("overload", "adversary RNG seed");
  cli.axis("mode", "flooder",
           "adversary mode: flooder | gamer | churn | herd | all, or a "
           "comma-separated list",
           slugs(qv::trafficgen::adversary_all_modes(),
                 qv::trafficgen::adversary_mode_name));
  cli.obs(/*simulator=*/false);
  cli.flags().define_bool("guard", true,
                          "enable the admission guard (off = demonstration)");
  if (!cli.parse(argc, argv)) return cli.status();

  OverloadSweepConfig sweep;
  sweep.modes = cli.pick(qv::trafficgen::adversary_all_modes());
  sweep.base.guard = cli.flags().get_bool("guard");
  cli.apply(sweep);
  return cli.report(run_overload_sweep(sweep), "ISOLATION VIOLATED");
}
