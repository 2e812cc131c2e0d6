// The traced dataplane run: a copy of run_dataplane's fused,
// unsupervised per-shard loop assembled from the public pieces
// (SpscRing, Preprocessor::process(span), BucketedPifo batch ops,
// admission_release), one thread per shard, with one clock read per
// stage per burst.
//
// The copy must describe the same program as run_dataplane: qvbench
// --trace compares its per-port books with the public run's and fails
// on any difference.
#pragma once

#include <cstdint>
#include <vector>

#include "dataplane/dataplane.hpp"
#include "probe.hpp"

namespace qvb {

/// Raw stage timings of one shard (ns) and the counts they cover.
struct ShardTrace {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t gen_ns = 0;   ///< packet generation into ring slots
  std::int64_t ring_ns = 0;  ///< prepare/commit push, peek, commit pop
  std::int64_t pre_ns = 0;   ///< Preprocessor::process(span)
  std::int64_t enq_ns = 0;   ///< BucketedPifo::enqueue_batch
  std::int64_t deq_ns = 0;   ///< dequeue_batch + delivery, incl. final drain
  std::uint64_t pkts = 0;    ///< packets popped from the ring
  std::uint64_t enq_calls = 0;
  std::uint64_t enq_pkts = 0;
  std::uint64_t deq_calls = 0;
  std::uint64_t deq_pkts = 0;
  std::uint64_t batches = 0;      ///< non-empty ring pops
  std::uint64_t empty_polls = 0;  ///< ring pops that found nothing
  std::vector<qv::dataplane::PortBook> ports;
};

struct DataplaneTrace {
  std::int64_t compile_ns = 0;  ///< policy synthesis
  std::int64_t wall_ns = 0;     ///< first shard start to last shard end
  std::vector<ShardTrace> shards;
};

/// run_dataplane(config) for a fused, unsupervised, per-tenant config
/// with batch > 1 (throws std::invalid_argument otherwise).
DataplaneTrace run_dataplane_traced(const qv::dataplane::DataplaneConfig& config,
                                    SpanLog* spans, int parent);

}  // namespace qvb
