// Dataplane throughput bench: run the sharded run-to-completion
// pipeline (src/dataplane/) and report packets per second plus the full
// conservation book as one JSON object on stdout.
//
// Not a google-benchmark binary: the measured unit is a whole
// multi-threaded run, so the driver (run_benchmarks.py --dataplane)
// invokes this once per grid cell and aggregates. Exits non-zero if any
// per-port conservation book fails to balance — every bench run is also
// a correctness check.
//
// The two headline views run_benchmarks.py assembles from this binary:
//   * pps vs --shards        (scaling curve, fixed batch)
//   * --supervision on vs off at one shard (fault-domain overhead on
//     the healthy path: heartbeats + deferred ring commits + periodic
//     checkpoints, no faults; paired-ratio row with a <= 3% bar)
#include <cstdio>
#include <fstream>
#include <string>

#include "dataplane/dataplane.hpp"
#include "obs/metrics.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  qv::Flags flags;
  flags.define_int("shards", 2, "worker shards (each adds a generator + "
                   "worker thread pair)");
  flags.define_int("ports-per-shard", 1, "output ports owned per shard");
  flags.define_int("packets", 500'000, "packets emitted per port (> 0)");
  flags.define_int("batch", 32,
                   "burst size on every stage (1 = one-packet bursts)");
  flags.define_int("ring", 1024, "SPSC ring capacity per shard");
  flags.define_int("service-depth", 128,
                   "steady-state per-port queue depth workers service to");
  flags.define_int("seed", 1, "workload seed");
  flags.define_int("tenants", 8, "tenants in the synthesized policy");
  flags.define_bool("guard", true, "police the last tenant's rate "
                    "(exercises the admission drop books)");
  flags.define_bool("fused", false,
                    "fuse generator + worker onto one thread per shard "
                    "(books identical; isolates pipeline cost from "
                    "cross-thread handoff on small hosts)");
  flags.define_bool("supervision", false,
                    "enable the fault domain (heartbeats, watchdog, "
                    "deferred ring commits, periodic checkpoints) with "
                    "no faults injected — the supervision-overhead side "
                    "of the paired bench row");
  flags.define_string("metrics", "",
                      "also dump the obs registry JSON to this path");
  if (!flags.parse(argc, argv)) return 1;
  if (flags.help_requested()) return 0;

  qv::dataplane::DataplaneConfig cfg;
  cfg.shards = static_cast<std::size_t>(flags.get_int("shards"));
  cfg.ports_per_shard =
      static_cast<std::size_t>(flags.get_int("ports-per-shard"));
  cfg.packets_per_port =
      static_cast<std::uint64_t>(flags.get_int("packets"));
  cfg.batch = static_cast<std::size_t>(flags.get_int("batch"));
  cfg.ring_capacity = static_cast<std::size_t>(flags.get_int("ring"));
  cfg.service_depth =
      static_cast<std::size_t>(flags.get_int("service-depth"));
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  cfg.tenants = static_cast<std::size_t>(flags.get_int("tenants"));
  cfg.guard = flags.get_bool("guard");
  cfg.fused = flags.get_bool("fused");
  cfg.supervision.enabled = flags.get_bool("supervision");

  const qv::dataplane::DataplaneResult result =
      qv::dataplane::run_dataplane(cfg);
  const qv::dataplane::PortBook book = result.book();

  std::uint64_t batches = 0, empty_polls = 0, full_spins = 0;
  for (const auto& s : result.shards) {
    batches += s.batches;
    empty_polls += s.empty_polls;
    full_spins += s.full_spins;
  }

  std::printf(
      "{\"config\":{\"shards\":%zu,\"ports_per_shard\":%zu,"
      "\"packets_per_port\":%llu,\"batch\":%zu,\"ring\":%zu,"
      "\"service_depth\":%zu,\"seed\":%llu,\"tenants\":%zu,\"guard\":%s,"
      "\"fused\":%s,\"supervision\":%s},"
      "\"wall_seconds\":%.6f,\"pps\":%.1f,\"balanced\":%s,"
      "\"book\":{\"generated\":%llu,\"processed\":%llu,"
      "\"unknown_dropped\":%llu,\"admission_dropped\":%llu,"
      "\"rate_dropped\":%llu,\"share_dropped\":%llu,"
      "\"quantile_dropped\":%llu,\"enqueued\":%llu,\"dequeued\":%llu,"
      "\"queue_dropped\":%llu,\"residual\":%llu,"
      "\"delivered_bytes\":%llu,\"quarantined\":%llu,"
      "\"lost_in_flight\":%llu},"
      "\"ring\":{\"batches\":%llu,\"empty_polls\":%llu,"
      "\"full_spins\":%llu},"
      "\"supervisor\":{\"checkpoints\":%llu,\"restores\":%llu}}\n",
      cfg.shards, cfg.ports_per_shard,
      static_cast<unsigned long long>(cfg.packets_per_port), cfg.batch,
      cfg.ring_capacity, cfg.service_depth,
      static_cast<unsigned long long>(cfg.seed), cfg.tenants,
      cfg.guard ? "true" : "false", cfg.fused ? "true" : "false",
      cfg.supervision.enabled ? "true" : "false",
      result.wall_seconds, result.pps(),
      result.balanced ? "true" : "false",
      static_cast<unsigned long long>(book.generated),
      static_cast<unsigned long long>(book.processed),
      static_cast<unsigned long long>(book.unknown_dropped),
      static_cast<unsigned long long>(book.admission_dropped),
      static_cast<unsigned long long>(book.rate_dropped),
      static_cast<unsigned long long>(book.share_dropped),
      static_cast<unsigned long long>(book.quantile_dropped),
      static_cast<unsigned long long>(book.enqueued),
      static_cast<unsigned long long>(book.dequeued),
      static_cast<unsigned long long>(book.queue_dropped),
      static_cast<unsigned long long>(book.residual),
      static_cast<unsigned long long>(book.delivered_bytes),
      static_cast<unsigned long long>(book.quarantined),
      static_cast<unsigned long long>(book.lost_in_flight),
      static_cast<unsigned long long>(batches),
      static_cast<unsigned long long>(empty_polls),
      static_cast<unsigned long long>(full_spins),
      static_cast<unsigned long long>(result.supervision().checkpoints),
      static_cast<unsigned long long>(result.supervision().restores));

  if (!flags.get_string("metrics").empty()) {
    qv::obs::Registry reg;
    result.export_metrics(reg);
    std::ofstream out(flags.get_string("metrics"));
    reg.write_json(out);
  }

  if (!result.balanced) {
    std::fprintf(stderr,
                 "bench_dataplane: CONSERVATION VIOLATED (see book)\n");
    return 1;
  }
  return 0;
}
