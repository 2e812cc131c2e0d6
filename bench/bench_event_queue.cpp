// Micro-benchmarks for the discrete-event core. The simulator runs one
// event per packet hop, so schedule/run_next throughput bounds overall
// simulation speed; cancel throughput matters for retransmission
// timers (reliable_source.hpp cancels one timer per delivered ack).
#include <benchmark/benchmark.h>

#include <cstdint>

#include "netsim/event.hpp"
#include "netsim/packet.hpp"
#include "util/random.hpp"

namespace {

using namespace qv;
using namespace qv::netsim;

/// Steady-state churn at depth ~`depth`: run one event, schedule one.
/// Templated over the queue so the wheel and heap-only layouts run
/// under the identical harness.
template <class Queue>
void run_schedule_run(benchmark::State& state) {
  Queue q;
  Rng rng(3);
  const int depth = static_cast<int>(state.range(0));
  TimeNs now = 0;
  std::uint64_t sink = 0;
  for (int i = 0; i < depth; ++i) {
    q.schedule(static_cast<TimeNs>(rng.next_below(1000)),
               [&sink] { ++sink; });
  }
  std::int64_t ops = 0;
  for (auto _ : state) {
    now = q.run_next();
    q.schedule(now + 1 + static_cast<TimeNs>(rng.next_below(1000)),
               [&sink] { ++sink; });
    ops += 2;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(ops);
}

void BM_EventScheduleRun(benchmark::State& state) {
  run_schedule_run<EventQueue>(state);
}
BENCHMARK(BM_EventScheduleRun)->Arg(64)->Arg(1024)->Arg(16384);

/// The retransmission-timer pattern: schedule a timer, cancel it before
/// it fires (plus a baseline event churn to keep the heap busy).
template <class Queue>
void run_schedule_cancel(benchmark::State& state) {
  Queue q;
  Rng rng(5);
  TimeNs now = 1;
  std::int64_t ops = 0;
  for (auto _ : state) {
    const EventId timer =
        q.schedule(now + 1000 + static_cast<TimeNs>(rng.next_below(1000)),
                   [] {});
    q.schedule(now + static_cast<TimeNs>(rng.next_below(100)), [] {});
    now = q.run_next();
    q.cancel(timer);
    ops += 3;
  }
  state.SetItemsProcessed(ops);
}

void BM_EventScheduleCancel(benchmark::State& state) {
  run_schedule_cancel<EventQueue>(state);
}
BENCHMARK(BM_EventScheduleCancel);

/// Packet-sized captures: the payload every Link callback carries.
template <class Queue>
void run_packet_capture(benchmark::State& state) {
  Queue q;
  Packet pkt;
  pkt.size_bytes = 1500;
  std::int64_t sink = 0;
  std::int64_t ops = 0;
  for (auto _ : state) {
    q.schedule(static_cast<TimeNs>(ops),
               [pkt, &sink] { sink += pkt.size_bytes; });
    q.run_next();
    ops += 2;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(ops);
}

void BM_EventPacketCapture(benchmark::State& state) {
  run_packet_capture<EventQueue>(state);
}
BENCHMARK(BM_EventPacketCapture);

/// The per-event reference engine's queue layout: the CURRENT
/// EventQueue with the timing wheel bypassed (everything routed
/// through the overflow heap). It shares slot storage, EventFn, and
/// cancel semantics with the wheel path, so wheel-vs-heap-only pairs
/// isolate the ORDERING structure — exactly the split
/// run_benchmarks.py --simcore reports.
struct HeapOnlyEventQueue : EventQueue {
  HeapOnlyEventQueue() { set_heap_only(true); }
};

void BM_HeapOnlyEventScheduleRun(benchmark::State& state) {
  run_schedule_run<HeapOnlyEventQueue>(state);
}
BENCHMARK(BM_HeapOnlyEventScheduleRun)->Arg(64)->Arg(1024)->Arg(16384);

void BM_HeapOnlyEventScheduleCancel(benchmark::State& state) {
  run_schedule_cancel<HeapOnlyEventQueue>(state);
}
BENCHMARK(BM_HeapOnlyEventScheduleCancel);

// --- adversarial distributions --------------------------------------
//
// The steady-state churn above is the wheel's best case: every delay
// lands in the level-0 window. These distributions attack its weak
// spots — far-future overflow, cancel-heavy churn, and a pure drain
// with no interleaved schedules (min-scan cost with nothing amortizing
// it). Each runs on the wheel and the heap-only layout under the
// identical harness.

/// Bimodal horizons at depth `depth`: 7 of 8 events are near (within
/// the level-0 window), 1 of 8 is far (~50 ms ahead — parks in the
/// overflow heap or level 1 and must migrate down before firing).
template <class Queue>
void run_bimodal_horizon(benchmark::State& state) {
  Queue q;
  Rng rng(7);
  const int depth = static_cast<int>(state.range(0));
  std::uint64_t sink = 0;
  auto delay = [&rng]() -> TimeNs {
    return rng.next_below(8) == 0
               ? 50'000'000 + static_cast<TimeNs>(rng.next_below(1'000'000))
               : 1 + static_cast<TimeNs>(rng.next_below(100'000));
  };
  TimeNs now = 0;
  for (int i = 0; i < depth; ++i) {
    q.schedule(delay(), [&sink] { ++sink; });
  }
  std::int64_t ops = 0;
  for (auto _ : state) {
    now = q.run_next();
    q.schedule(now + delay(), [&sink] { ++sink; });
    ops += 2;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(ops);
}

void BM_EventBimodalHorizon(benchmark::State& state) {
  run_bimodal_horizon<EventQueue>(state);
}
BENCHMARK(BM_EventBimodalHorizon)->Arg(1024)->Arg(16384);

void BM_HeapOnlyEventBimodalHorizon(benchmark::State& state) {
  run_bimodal_horizon<HeapOnlyEventQueue>(state);
}
BENCHMARK(BM_HeapOnlyEventBimodalHorizon)->Arg(1024)->Arg(16384);

/// Cancel-heavy churn: schedule four timers, cancel three before they
/// fire, run one — the retransmission pattern at its worst (75% of
/// scheduled work is wasted and must be unlinked, not skimmed).
template <class Queue>
void run_cancel_heavy(benchmark::State& state) {
  Queue q;
  Rng rng(11);
  TimeNs now = 1;
  std::int64_t ops = 0;
  for (auto _ : state) {
    EventId doomed[3];
    for (auto& id : doomed) {
      id = q.schedule(now + 500 + static_cast<TimeNs>(rng.next_below(2000)),
                      [] {});
    }
    q.schedule(now + static_cast<TimeNs>(rng.next_below(200)), [] {});
    now = q.run_next();
    for (const auto id : doomed) q.cancel(id);
    ops += 8;
  }
  state.SetItemsProcessed(ops);
}

void BM_EventCancelHeavy(benchmark::State& state) {
  run_cancel_heavy<EventQueue>(state);
}
BENCHMARK(BM_EventCancelHeavy);

void BM_HeapOnlyEventCancelHeavy(benchmark::State& state) {
  run_cancel_heavy<HeapOnlyEventQueue>(state);
}
BENCHMARK(BM_HeapOnlyEventCancelHeavy);

/// Monotone drain: fill `n` events in random rank order, then drain
/// the queue dry with no interleaved schedules. This is the coalesced
/// link drain's access pattern (pop, pop, pop...) and the worst case
/// for the wheel's earliest-bucket min-scan, since no insertion
/// repopulates the bucket the scan just emptied.
template <class Queue>
void run_monotone_drain(benchmark::State& state) {
  Rng rng(13);
  const int n = static_cast<int>(state.range(0));
  std::uint64_t sink = 0;
  std::int64_t ops = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Queue q;
    for (int i = 0; i < n; ++i) {
      q.schedule(static_cast<TimeNs>(rng.next_below(1'000'000)),
                 [&sink] { ++sink; });
    }
    state.ResumeTiming();
    for (int i = 0; i < n; ++i) q.run_next();
    ops += n;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(ops);
}

void BM_EventMonotoneDrain(benchmark::State& state) {
  run_monotone_drain<EventQueue>(state);
}
BENCHMARK(BM_EventMonotoneDrain)->Arg(4096);

void BM_HeapOnlyEventMonotoneDrain(benchmark::State& state) {
  run_monotone_drain<HeapOnlyEventQueue>(state);
}
BENCHMARK(BM_HeapOnlyEventMonotoneDrain)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
