#include "dataplane_copy.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>

#include "dataplane/spsc_ring.hpp"
#include "netsim/packet.hpp"
#include "qvisor/admission.hpp"
#include "qvisor/policy.hpp"
#include "qvisor/preprocessor.hpp"
#include "qvisor/synthesizer.hpp"
#include "sched/bucketed_pifo.hpp"
#include "util/random.hpp"

namespace qvb {

namespace {

using qv::Packet;
using qv::TimeNs;
using qv::dataplane::DataplaneConfig;
using qv::dataplane::PortBook;

/// One output port, as dataplane.cpp builds it: pre-processor (+ rate
/// guard on the last tenant) in front of an unbounded BucketedPifo.
struct Port {
  Port(const qv::qvisor::SynthesisPlan& plan, const DataplaneConfig& cfg)
      : pre(qv::qvisor::UnknownTenantAction::kDrop),
        sch(plan.used_rank_space() > 0 ? plan.used_rank_space() : 1,
            /*buffer_bytes=*/0) {
    pre.install(plan);
    if (cfg.guard) {
      qv::qvisor::AdmissionConfig ac;
      qv::qvisor::AdmissionTenantConfig policed;
      policed.tenant = static_cast<qv::TenantId>(cfg.tenants - 1);
      policed.rate_bytes_per_sec = cfg.policed_rate_bytes_per_sec;
      policed.burst_bytes = cfg.policed_burst_bytes;
      ac.tenants.push_back(policed);
      ac.rank_window = 0;
      pre.configure_admission(std::move(ac));
    }
  }

  qv::qvisor::Preprocessor pre;
  qv::sched::BucketedPifo sch;
  std::uint64_t delivered_bytes = 0;
};

/// Per-port packet stream: a function of (seed, global port) only.
struct Gen {
  Gen(std::uint64_t seed, std::size_t port)
      : rng(qv::SplitMix64(seed ^ (0x9e3779b97f4a7c15ULL *
                                   (static_cast<std::uint64_t>(port) + 1)))
                .next()),
        port(port) {}

  Packet make(const DataplaneConfig& cfg) {
    Packet p;
    p.flow = port;
    p.seq = static_cast<std::uint32_t>(emitted);
    p.dst = static_cast<qv::NodeId>(port);
    p.size_bytes = cfg.packet_bytes;
    p.tenant = static_cast<qv::TenantId>(rng.next_below(cfg.tenants));
    p.original_rank = static_cast<qv::Rank>(rng.next_below(100));
    p.rank = p.original_rank;
    p.created_at = clock;
    clock += cfg.packet_interval;
    ++emitted;
    return p;
  }

  qv::Rng rng;
  std::size_t port;
  TimeNs clock = 0;
  std::uint64_t emitted = 0;
};

void deliver(Port& port, const Packet& p) {
  port.delivered_bytes += static_cast<std::uint64_t>(p.size_bytes);
  port.pre.admission_release(p.tenant, p.size_bytes);
}

/// One shard's fused run-to-completion loop: generate one burst per
/// port into the ring, then drain the ring through pre-process,
/// enqueue and service; finally empty every queue and close the books.
void run_shard(const qv::qvisor::SynthesisPlan& plan,
               const DataplaneConfig& cfg, std::size_t shard_index,
               ShardTrace& t) {
  const std::size_t first_port = shard_index * cfg.ports_per_shard;
  qv::dataplane::SpscRing<Packet> ring(cfg.ring_capacity);
  std::vector<std::unique_ptr<Port>> ports;
  std::vector<Gen> gens;
  for (std::size_t p = 0; p < cfg.ports_per_shard; ++p) {
    ports.push_back(std::make_unique<Port>(plan, cfg));
    gens.emplace_back(cfg.seed, first_port + p);
  }
  std::vector<Packet> out(cfg.batch);

  t.start_ns = mono_ns();
  std::int64_t clock = t.start_ns;
  // Charge the time since the last stage boundary to `bucket`.
  const auto lap = [&clock](std::int64_t& bucket) {
    const std::int64_t now = mono_ns();
    bucket += now - clock;
    clock = now;
  };

  for (;;) {
    bool budget_left = false;
    for (Gen& g : gens) {
      const std::uint64_t left = cfg.packets_per_port - g.emitted;
      if (left == 0) continue;
      budget_left = true;
      const std::size_t want =
          left < cfg.batch ? static_cast<std::size_t>(left) : cfg.batch;
      const std::span<Packet> slots = ring.prepare_push(want);
      lap(t.ring_ns);
      if (slots.empty()) continue;  // full: drained below, retried next round
      for (Packet& slot : slots) slot = g.make(cfg);
      lap(t.gen_ns);
      ring.commit_push(slots.size());
    }
    for (;;) {
      const std::span<Packet> burst = ring.peek(cfg.batch);
      lap(t.ring_ns);
      if (burst.empty()) {
        ++t.empty_polls;
        break;
      }
      ++t.batches;
      t.pkts += burst.size();
      std::size_t i = 0;
      while (i < burst.size()) {
        const qv::NodeId dst = burst[i].dst;
        std::size_t j = i + 1;
        while (j < burst.size() && burst[j].dst == dst) ++j;
        Port& port = *ports[dst - first_port];
        const std::span<Packet> sp = burst.subspan(i, j - i);
        const TimeNs now = sp.front().created_at;
        const std::size_t kept = port.pre.process(sp, now);
        lap(t.pre_ns);
        port.sch.enqueue_batch(sp.first(kept), now);
        ++t.enq_calls;
        t.enq_pkts += kept;
        lap(t.enq_ns);
        while (port.sch.size() > cfg.service_depth) {
          std::size_t want = port.sch.size() - cfg.service_depth;
          if (want > out.size()) want = out.size();
          const std::size_t got = port.sch.dequeue_batch(
              std::span<Packet>(out.data(), want), now);
          ++t.deq_calls;
          t.deq_pkts += got;
          for (std::size_t k = 0; k < got; ++k) deliver(port, out[k]);
        }
        lap(t.deq_ns);
        i = j;
      }
      ring.commit_pop(burst.size());
    }
    if (!budget_left) break;
  }

  t.ports.resize(ports.size());
  for (std::size_t p = 0; p < ports.size(); ++p) {
    Port& port = *ports[p];
    for (;;) {
      const std::size_t got = port.sch.dequeue_batch(std::span<Packet>(out), 0);
      if (got == 0) break;
      ++t.deq_calls;
      t.deq_pkts += got;
      for (std::size_t k = 0; k < got; ++k) deliver(port, out[k]);
    }
    PortBook& b = t.ports[p];
    b.generated = gens[p].emitted;
    const qv::qvisor::PreprocessorCounters& pc = port.pre.counters();
    b.processed = pc.processed;
    b.unknown_dropped = pc.unknown_tenant;
    b.admission_dropped = pc.admission_dropped;
    if (const qv::qvisor::AdmissionGuard* g = port.pre.admission()) {
      const qv::qvisor::AdmissionTenantCounters c = g->totals();
      b.rate_dropped = c.rate_dropped;
      b.share_dropped = c.share_dropped;
      b.quantile_dropped = c.quantile_dropped;
    }
    const qv::sched::SchedulerCounters& sc = port.sch.counters();
    b.enqueued = sc.enqueued;
    b.dequeued = sc.dequeued;
    b.queue_dropped = sc.dropped;
    b.residual = port.sch.size();
    b.delivered_bytes = port.delivered_bytes;
  }
  lap(t.deq_ns);
  t.end_ns = clock;
}

/// The per-tenant plan run_dataplane synthesizes: "t0 >> t1 + ... + tN".
qv::qvisor::SynthesisPlan make_plan(const DataplaneConfig& cfg) {
  std::vector<qv::qvisor::TenantSpec> tenants;
  std::string text;
  for (std::size_t t = 0; t < cfg.tenants; ++t) {
    qv::qvisor::TenantSpec spec;
    spec.id = static_cast<qv::TenantId>(t);
    spec.name = "t";
    spec.name += std::to_string(t);
    spec.declared_bounds = {0, 99};
    if (t > 0) text += (t == 1) ? " >> " : " + ";
    text += spec.name;
    tenants.push_back(std::move(spec));
  }
  const qv::qvisor::PolicyParseResult parsed = qv::qvisor::parse_policy(text);
  if (!parsed.policy) throw std::runtime_error("policy: " + parsed.error);
  qv::qvisor::SynthesizerConfig sc;
  sc.rank_space = 1u << 16;
  const qv::qvisor::Synthesizer::Result res =
      qv::qvisor::Synthesizer(sc).synthesize(tenants, *parsed.policy);
  if (!res.ok()) throw std::runtime_error("synthesis: " + res.error);
  return *res.plan;
}

}  // namespace

DataplaneTrace run_dataplane_traced(const DataplaneConfig& config,
                                    SpanLog* spans, int parent) {
  if (!config.fused || config.supervision.enabled || config.groups != 0 ||
      config.batch <= 1 || config.packets_per_port == 0 ||
      config.shards == 0 || config.ports_per_shard == 0 ||
      config.tenants == 0) {
    throw std::invalid_argument(
        "traced dataplane copy covers fused, unsupervised, per-tenant, "
        "batched, fixed-length runs only");
  }
  DataplaneTrace trace;
  Scope run(spans, "dataplane.run", parent);
  qv::qvisor::SynthesisPlan plan;
  {
    Scope s(spans, "qvisor.compile", run.id());
    plan = make_plan(config);
    trace.compile_ns = s.finish();
  }
  trace.shards.resize(config.shards);
  std::vector<std::exception_ptr> errors(config.shards);
  {
    std::vector<std::thread> threads;
    for (std::size_t s = 0; s < config.shards; ++s) {
      threads.emplace_back([&, s] {
        try {
          Scope span(spans, "dataplane.shard", run.id());
          run_shard(plan, config, s, trace.shards[s]);
        } catch (...) {
          errors[s] = std::current_exception();
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  std::int64_t first = trace.shards.front().start_ns;
  std::int64_t last = trace.shards.front().end_ns;
  for (const ShardTrace& s : trace.shards) {
    first = std::min(first, s.start_ns);
    last = std::max(last, s.end_ns);
  }
  trace.wall_ns = last - first;
  return trace;
}

}  // namespace qvb
