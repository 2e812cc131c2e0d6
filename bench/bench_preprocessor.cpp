// Micro-benchmarks for QVISOR's data-plane hot path: per-packet
// pre-processor cost (tenant lookup + rank transform), closed-form vs
// match-action-table transforms, and the full QvisorPort enqueue path.
// The pre-processor must run "at line rate" (paper §3.2) — these
// numbers show the software cost is a few nanoseconds per packet.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "qvisor/backend.hpp"
#include "qvisor/qvisor.hpp"
#include "util/random.hpp"

namespace {

using namespace qv;
using namespace qv::qvisor;

TenantSpec tenant(TenantId id, const std::string& name, Rank lo, Rank hi) {
  TenantSpec spec;
  spec.id = id;
  spec.name = name;
  spec.declared_bounds = {lo, hi};
  return spec;
}

SynthesisPlan plan_with_tenants(int n) {
  std::vector<TenantSpec> specs;
  std::string policy_text;
  for (int i = 0; i < n; ++i) {
    const std::string name = "t" + std::to_string(i);
    specs.push_back(tenant(static_cast<TenantId>(i), name, 0, 1 << 16));
    if (i > 0) policy_text += i % 2 == 0 ? " >> " : " + ";
    policy_text += name;
  }
  auto parsed = parse_policy(policy_text);
  Synthesizer synth;
  auto r = synth.synthesize(specs, *parsed.policy);
  return *r.plan;
}

/// Pre-generated packet stream shared by the per-packet benchmarks so
/// the RNG is not part of the timed loop.
std::vector<Packet> packet_stream(std::int64_t tenants, std::size_t count) {
  Rng rng(3);
  std::vector<Packet> stream(count);
  for (auto& p : stream) {
    p.tenant = static_cast<TenantId>(rng.next_below(tenants));
    p.original_rank = static_cast<Rank>(rng.next_below(1 << 16));
    p.rank = p.original_rank;
    p.size_bytes = 1500;
  }
  return stream;
}

/// 16 packets per benchmark iteration: the system Google benchmark
/// library is a debug build whose per-iteration bookkeeping would
/// otherwise swamp a few-nanosecond operation.
constexpr int kScalarUnroll = 16;

void BM_PreprocessorProcess(benchmark::State& state) {
  Preprocessor pre;
  pre.install(plan_with_tenants(static_cast<int>(state.range(0))));
  constexpr std::size_t kStream = 4096;  // power of two: cheap cycling
  std::vector<Packet> stream = packet_stream(state.range(0), kStream);
  std::int64_t packets = 0;
  std::size_t next = 0;
  for (auto _ : state) {
    for (int i = 0; i < kScalarUnroll; ++i) {
      Packet& p = stream[next++ & (kStream - 1)];
      benchmark::DoNotOptimize(pre.process(p));
      benchmark::DoNotOptimize(p.rank);
    }
    packets += kScalarUnroll;
  }
  state.SetItemsProcessed(packets);
}
BENCHMARK(BM_PreprocessorProcess)->Arg(2)->Arg(8)->Arg(32);

void BM_PreprocessorProcessGuarded(benchmark::State& state) {
  // Same hot path with the admission guard engaged: every tenant gets a
  // token bucket, a share cap, and a rank window (the overload-
  // experiment shape). Acceptance: within a few percent of the
  // unguarded bench — the quantile scan only engages past half the
  // share cap, and occupancy is released each packet here, so the
  // steady-state cost is the refill + bucket arithmetic.
  const int tenants = static_cast<int>(state.range(0));
  Preprocessor pre;
  pre.install(plan_with_tenants(tenants));
  AdmissionConfig cfg;
  for (int i = 0; i < tenants; ++i) {
    AdmissionTenantConfig tc;
    tc.tenant = static_cast<TenantId>(i);
    tc.rate_bytes_per_sec = 1e12;  // never the bottleneck: measure cost,
    tc.burst_bytes = 1e9;          // not drops
    tc.share_cap_bytes = 1 << 20;
    cfg.tenants.push_back(tc);
  }
  pre.configure_admission(std::move(cfg));
  constexpr std::size_t kStream = 4096;
  std::vector<Packet> stream = packet_stream(state.range(0), kStream);
  std::int64_t packets = 0;
  std::size_t next = 0;
  TimeNs now = 0;
  for (auto _ : state) {
    for (int i = 0; i < kScalarUnroll; ++i) {
      Packet& p = stream[next++ & (kStream - 1)];
      now += 100;
      benchmark::DoNotOptimize(pre.process(p, now));
      pre.admission_release(p.tenant, p.size_bytes);
      benchmark::DoNotOptimize(p.rank);
    }
    packets += kScalarUnroll;
  }
  state.SetItemsProcessed(packets);
}
BENCHMARK(BM_PreprocessorProcessGuarded)->Arg(2)->Arg(8)->Arg(32);

void BM_PreprocessorBatch(benchmark::State& state) {
  // The switch output-port path: one pre-processing pass over a burst
  // (QvisorPort::enqueue_batch). Amortizes per-call overhead and keeps
  // the dense tenant table hot.
  constexpr std::size_t kBurst = 64;
  Preprocessor pre;
  pre.install(plan_with_tenants(static_cast<int>(state.range(0))));
  std::vector<Packet> burst = packet_stream(state.range(0), kBurst);
  std::int64_t packets = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pre.process(std::span<Packet>(burst)));
    packets += static_cast<std::int64_t>(kBurst);
  }
  state.SetItemsProcessed(packets);
}
BENCHMARK(BM_PreprocessorBatch)->Arg(2)->Arg(8)->Arg(32);

void BM_ClosedFormTransform(benchmark::State& state) {
  const RankTransform t({0, 1 << 16}, 4096, 1000);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        t.apply(static_cast<Rank>(rng.next_below(1 << 16))));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ClosedFormTransform);

void BM_TableTransform(benchmark::State& state) {
  const RankTransform t({0, 1 << 16}, 4096, 1000);
  const TableTransform table = TableTransform::compile(t, 1 << 20);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        table.apply(static_cast<Rank>(rng.next_below(1 << 16))));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TableTransform);

void BM_QvisorPortEnqueueDequeue(benchmark::State& state) {
  // Full data-plane path: monitor + estimator + transform + PIFO.
  auto parsed = parse_policy("a >> b");
  Hypervisor hv({tenant(0, "a", 0, 1 << 16), tenant(1, "b", 0, 1 << 16)},
                *parsed.policy, std::make_shared<PifoBackend>());
  hv.compile();
  auto port = hv.make_port_scheduler();
  Rng rng(9);
  for (int i = 0; i < 128; ++i) {
    Packet p;
    p.tenant = static_cast<TenantId>(rng.next_below(2));
    p.original_rank = static_cast<Rank>(rng.next_below(1 << 16));
    p.size_bytes = 1500;
    port->enqueue(p, 0);
  }
  std::int64_t ops = 0;
  for (auto _ : state) {
    Packet p;
    p.tenant = static_cast<TenantId>(rng.next_below(2));
    p.original_rank = static_cast<Rank>(rng.next_below(1 << 16));
    p.size_bytes = 1500;
    port->enqueue(p, 0);
    benchmark::DoNotOptimize(port->dequeue(0));
    ops += 2;
  }
  state.SetItemsProcessed(ops);
}
BENCHMARK(BM_QvisorPortEnqueueDequeue);

void BM_QvisorPortEnqueueDequeueGuarded(benchmark::State& state) {
  // The acceptance measurement for the admission guard: the same full
  // port path with per-tenant policing configured. The guard's few
  // nanoseconds ride on the monitor + estimator + PIFO cost, which is
  // what a deployment actually pays per packet.
  auto parsed = parse_policy("a >> b");
  Hypervisor hv({tenant(0, "a", 0, 1 << 16), tenant(1, "b", 0, 1 << 16)},
                *parsed.policy, std::make_shared<PifoBackend>());
  hv.compile();
  TenantContract contract;
  contract.tenant = 0;
  contract.rank_min = 0;
  contract.rank_max = 1 << 16;
  contract.max_rate = 1'000'000'000'000;  // never the bottleneck
  hv.set_contract(contract);
  contract.tenant = 1;
  hv.set_contract(contract);
  AdmissionSettings settings;
  settings.enabled = true;
  settings.port_buffer_bytes = 1 << 20;
  hv.set_admission(settings);
  auto port = hv.make_port_scheduler();
  Rng rng(9);
  for (int i = 0; i < 128; ++i) {
    Packet p;
    p.tenant = static_cast<TenantId>(rng.next_below(2));
    p.original_rank = static_cast<Rank>(rng.next_below(1 << 16));
    p.size_bytes = 1500;
    port->enqueue(p, 0);
  }
  std::int64_t ops = 0;
  TimeNs now = 0;
  for (auto _ : state) {
    Packet p;
    p.tenant = static_cast<TenantId>(rng.next_below(2));
    p.original_rank = static_cast<Rank>(rng.next_below(1 << 16));
    p.size_bytes = 1500;
    now += 100;
    port->enqueue(p, now);
    benchmark::DoNotOptimize(port->dequeue(now));
    ops += 2;
  }
  state.SetItemsProcessed(ops);
}
BENCHMARK(BM_QvisorPortEnqueueDequeueGuarded);

}  // namespace

BENCHMARK_MAIN();
