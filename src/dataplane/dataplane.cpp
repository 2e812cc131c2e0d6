#include "dataplane/dataplane.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "control/group_compiler.hpp"
#include "control/group_plan.hpp"
#include "exec/thread_pool.hpp"
#include "dataplane/spsc_ring.hpp"
#include "netsim/packet.hpp"
#include "qvisor/admission.hpp"
#include "qvisor/policy.hpp"
#include "qvisor/preprocessor.hpp"
#include "qvisor/synthesizer.hpp"
#include "sched/bucketed_pifo.hpp"
#include "util/random.hpp"

namespace qv::dataplane {

namespace {

/// The compiled scheduling function the ports run: per-tenant plan, or
/// (groups mode) a shared group-compiled plan whose transform table
/// every port indexes through the O(1) tenant -> group index.
struct PlanBundle {
  qvisor::SynthesisPlan plan;
  std::shared_ptr<const control::CompiledGroupPlan> group;

  const qvisor::SynthesisPlan& table() const {
    return group ? group->table : plan;
  }
};

/// One output port's pipeline: pre-processor (+ inlined admission
/// guard) in front of a BucketedPifo sized to the synthesized rank
/// space. Owned and touched by exactly one worker thread.
struct Port {
  Port(const PlanBundle& bundle, const DataplaneConfig& cfg)
      : pre(qvisor::UnknownTenantAction::kDrop),
        sch(bundle.table().used_rank_space() > 0
                ? bundle.table().used_rank_space()
                : 1,
            /*buffer_bytes=*/0) {
    // The guard, not the scheduler, owns buffer management: the PIFO is
    // unbounded so queue_dropped stays 0 and the conservation book has
    // a single drop stage.
    if (bundle.group) {
      pre.install_groups(*bundle.group);
    } else {
      pre.install(bundle.plan);
    }
    if (cfg.guard) {
      qvisor::AdmissionConfig ac;
      qvisor::AdmissionTenantConfig policed;
      policed.tenant = static_cast<TenantId>(cfg.tenants - 1);
      policed.rate_bytes_per_sec = cfg.policed_rate_bytes_per_sec;
      policed.burst_bytes = cfg.policed_burst_bytes;
      ac.tenants.push_back(policed);
      ac.rank_window = 0;  // rate policing only: see header determinism note
      pre.configure_admission(std::move(ac));
    }
  }

  qvisor::Preprocessor pre;
  sched::BucketedPifo sch;
  std::uint64_t delivered_bytes = 0;
};

/// Per-port generator state, owned by the shard's producer thread. The
/// stream is a function of (seed, global port id) only, so it is
/// identical no matter which shard — or how many shards — consume it.
struct Gen {
  explicit Gen(std::uint64_t seed, std::size_t port)
      : rng(SplitMix64(seed ^ (0x9e3779b97f4a7c15ULL *
                               (static_cast<std::uint64_t>(port) + 1)))
                .next()),
        port(port) {}

  Rng rng;
  std::size_t port;
  TimeNs clock = 0;
  std::uint64_t emitted = 0;
};

struct Shard {
  Shard(std::size_t ring_capacity, std::size_t first_port)
      : ring(ring_capacity), first_port(first_port) {}

  SpscRing<Packet> ring;
  std::size_t first_port;
  std::vector<std::unique_ptr<Port>> ports;
  std::vector<Gen> gens;                   ///< producer side
  std::atomic<bool> producer_done{false};
  std::uint64_t full_spins = 0;            ///< producer side
  ShardResult result;                      ///< worker fills; merged after join

  // Fault domain (all null/idle when supervision is disabled).
  std::size_t index = 0;
  const FaultSchedule* faults = nullptr;    ///< whole-plan view (poison set)
  ShardFaultProgram* program = nullptr;     ///< this shard's events
  ShardSupervisor* supervisor = nullptr;
  std::uint64_t producer_rounds = 0;        ///< producer side: desync clock
  /// Drain handshake: the worker raises pause_request; the producer
  /// snapshots per-port emission counts, acks with paused, and parks
  /// until the request clears.
  std::atomic<bool> pause_request{false};
  std::atomic<bool> paused{false};
  std::vector<std::uint64_t> emitted_snapshot;  ///< valid while paused
};

/// Producer-side desync firing: once the producer's round counter
/// reaches an armed event, publish stale ring slots (the worker will
/// trip on the dst/seq validation and recover by draining).
void fire_producer_desyncs(Shard& shard) {
  ++shard.producer_rounds;
  if (shard.program == nullptr) return;
  for (ShardFaultProgram::Desync& d : shard.program->desyncs) {
    if (!d.fired && shard.producer_rounds >= d.at_burst) {
      d.fired = true;
      shard.ring.corrupt_advance_tail(d.slots);
    }
  }
}

Packet make_packet(Gen& g, const DataplaneConfig& cfg) {
  Packet p;
  p.flow = g.port;
  p.seq = static_cast<std::uint32_t>(g.emitted);
  p.dst = static_cast<NodeId>(g.port);
  p.size_bytes = cfg.packet_bytes;
  p.tenant = static_cast<TenantId>(g.rng.next_below(cfg.tenants));
  p.original_rank = static_cast<Rank>(g.rng.next_below(100));
  p.rank = p.original_rank;
  p.created_at = g.clock;
  g.clock += cfg.packet_interval;
  ++g.emitted;
  return p;
}

/// One generation round: round-robin over the shard's ports, one burst
/// of up to `cfg.batch` packets per port, generated straight into
/// borrowed ring slots (zero-copy). Returns false once every port has
/// emitted its `packets_per_port`.
///
/// `spin` selects the backpressure style: true (dedicated producer
/// thread) spins with yield until the burst fits — never a drop, so
/// timing cannot lose a packet; false (fused mode: the caller drains
/// the ring itself between rounds) skips a full ring and retries the
/// port next round, which is equally lossless single-threaded.
bool produce_round(Shard& shard, const DataplaneConfig& cfg, bool spin) {
  fire_producer_desyncs(shard);
  bool budget_left = false;
  const bool poison = shard.faults != nullptr && shard.faults->any_poison();
  for (Gen& g : shard.gens) {
    // Pause check per gen, not per round: once a drain is requested, at
    // most the one in-flight burst completes, keeping recovery loss
    // bounded by ring capacity + one burst.
    if (spin && shard.pause_request.load(std::memory_order_relaxed)) {
      return true;  // conservative: pause now, finish later
    }
    const std::uint64_t left = cfg.packets_per_port - g.emitted;
    if (left == 0) continue;
    budget_left = true;
    const std::size_t want =
        left < cfg.batch ? static_cast<std::size_t>(left) : cfg.batch;
    std::span<Packet> slots = shard.ring.prepare_push(want);
    while (slots.empty()) {
      if (!spin) break;
      // A paused worker stops committing, so a full ring can stay full:
      // bail (nothing generated yet) and let producer_loop pause.
      if (shard.pause_request.load(std::memory_order_relaxed)) break;
      ++shard.full_spins;
      std::this_thread::yield();
      slots = shard.ring.prepare_push(want);
    }
    if (slots.empty()) continue;
    // May be shorter than `want` (wrap or partial room): the budget is
    // tracked by g.emitted, so a short burst just means the port gets
    // another round.
    for (Packet& slot : slots) {
      slot = make_packet(g, cfg);
      if (poison && shard.faults->poisoned(g.port, slot.seq)) {
        slot.size_bytes = -1;
      }
    }
    shard.ring.commit_push(slots.size());
  }
  return budget_left;
}

/// Producer loop for the pipelined (two threads per shard) mode.
void producer_loop(Shard& shard, const DataplaneConfig& cfg) {
  for (;;) {
    if (shard.pause_request.load(std::memory_order_acquire)) {
      // Drain handshake: publish exact emission counts, ack, park.
      for (std::size_t p = 0; p < shard.gens.size(); ++p) {
        shard.emitted_snapshot[p] = shard.gens[p].emitted;
      }
      shard.paused.store(true, std::memory_order_release);
      while (shard.pause_request.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      shard.paused.store(false, std::memory_order_release);
      continue;
    }
    if (!produce_round(shard, cfg, /*spin=*/true)) break;
  }
  shard.producer_done.store(true, std::memory_order_release);
}

/// Deliver a dequeued packet: byte accounting plus the guard's
/// occupancy release (a no-op under rate-only policing, but the
/// contract is release-on-dequeue whenever share caps are configured).
inline void deliver(Port& port, const Packet& p) {
  port.delivered_bytes += static_cast<std::uint64_t>(p.size_bytes);
  port.pre.admission_release(p.tenant, p.size_bytes);
}

/// Pipeline stage for one port-contiguous run of a burst: rank rewrite
/// + admission over the whole span, survivors enqueued as one batch,
/// then service back down to the steady-state depth. The run is one
/// admission instant: every packet is admitted at the first packet's
/// created_at, so the guard's drop count depends on where burst
/// boundaries fall (see the header's determinism note).
void process_span(Port& port, std::span<Packet> sp, std::vector<Packet>& out,
                  const DataplaneConfig& cfg) {
  const TimeNs now = sp.front().created_at;
  const std::size_t kept = port.pre.process(sp, now);
  port.sch.enqueue_batch(sp.first(kept), now);
  while (port.sch.size() > cfg.service_depth) {
    std::size_t want = port.sch.size() - cfg.service_depth;
    if (want > out.size()) want = out.size();
    const std::size_t got =
        port.sch.dequeue_batch(std::span<Packet>(out.data(), want), now);
    for (std::size_t i = 0; i < got; ++i) deliver(port, out[i]);
  }
}

/// Ring-side tallies for one consumed burst of `n` packets.
void note_burst(Shard& shard, std::size_t n) {
  ShardResult& r = shard.result;
  ++r.batches;
  r.batch_pkts.add(n);
  r.ring_occupancy.add(shard.ring.size_approx());
}

/// Terminal drain + book snapshot: empty every queue so residual == 0
/// and the books close, then copy the per-port counters into the
/// shard's result.
void finalize_shard(Shard& shard, std::vector<Packet>& out) {
  ShardResult& r = shard.result;
  for (std::size_t p = 0; p < shard.ports.size(); ++p) {
    Port& port = *shard.ports[p];
    for (;;) {
      const std::size_t got =
          port.sch.dequeue_batch(std::span<Packet>(out), 0);
      if (got == 0) break;
      for (std::size_t i = 0; i < got; ++i) deliver(port, out[i]);
    }
    PortBook& b = r.ports[p];
    const qvisor::PreprocessorCounters& pc = port.pre.counters();
    b.processed = pc.processed;
    b.unknown_dropped = pc.unknown_tenant;
    b.admission_dropped = pc.admission_dropped;
    if (const qvisor::AdmissionGuard* g = port.pre.admission()) {
      const qvisor::AdmissionTenantCounters t = g->totals();
      b.rate_dropped = t.rate_dropped;
      b.share_dropped = t.share_dropped;
      b.quantile_dropped = t.quantile_dropped;
    }
    const sched::SchedulerCounters& sc = port.sch.counters();
    b.enqueued = sc.enqueued;
    b.dequeued = sc.dequeued;
    b.queue_dropped = sc.dropped;
    b.residual = port.sch.size();
    b.delivered_bytes = port.delivered_bytes;
  }
}

/// Unsupervised consumer. Each burst is borrowed from the ring and
/// processed in place — the pre-processor rewrites ranks and compacts
/// survivors inside the ring storage; only survivors are copied (into
/// the PIFO) — then released. The burst is split into port-contiguous
/// runs (the producer emits port-major, so a run is almost always a
/// whole burst), each carried through rank rewrite, admission, enqueue,
/// and service before the next.
struct Direct {
  Direct(Shard& shard, const DataplaneConfig& cfg)
      : shard(shard), cfg(cfg), out(cfg.batch) {}

  /// Consumed but not yet released ring slots: none, every burst is
  /// released as soon as it is processed.
  static constexpr std::size_t uncommitted = 0;

  Shard& shard;
  const DataplaneConfig& cfg;
  std::vector<Packet> out;

  /// Consume one burst; returns its size (0 = ring empty).
  std::size_t consume_once() {
    const std::span<Packet> burst = shard.ring.peek(cfg.batch);
    if (burst.empty()) return 0;
    note_burst(shard, burst.size());
    std::size_t i = 0;
    while (i < burst.size()) {
      const NodeId dst = burst[i].dst;
      std::size_t j = i + 1;
      while (j < burst.size() && burst[j].dst == dst) ++j;
      process_span(*shard.ports[dst - shard.first_port],
                   burst.subspan(i, j - i), out, cfg);
      i = j;
    }
    shard.ring.commit_pop(burst.size());
    return burst.size();
  }

  void finish() { finalize_shard(shard, out); }
};

// ---------------------------------------------------------------------------
// Supervised consumer: the fault domain. The shard loops are templates
// over their consumer, so the unsupervised instantiation (Direct above)
// carries none of this.
// ---------------------------------------------------------------------------

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Worker-side fault verdict: unwinds the current burst to the recovery
/// handler. Never escapes Supervised::consume_once.
struct ShardFault {
  RecoveryRecord::Cause cause;
  std::size_t port = 0;
  std::uint64_t seq = 0;
};

/// Everything needed to rewind one port to a known-good point: the
/// pre-processor (admission tokens, spill LRU, counters — deep copy),
/// the PIFO content + counters, byte tally, and the stream cursor.
struct PortCheckpoint {
  qvisor::Preprocessor pre{qvisor::UnknownTenantAction::kDrop};
  std::vector<Packet> queue;
  sched::SchedulerCounters sch;
  std::uint64_t delivered_bytes = 0;
  std::uint64_t stream_pos = 0;
};

/// Worker-side supervision state. The key invariant: ring commits are
/// DEFERRED to checkpoints, so every packet consumed since the last
/// checkpoint is physically still in the ring (the `uncommitted`
/// region) and can be replayed after a restore. Consequently recovery
/// loss (drain policy) is bounded by ring capacity + one burst, no
/// matter how rarely checkpoints run.
struct Supervised {
  Supervised(Shard& shard, const DataplaneConfig& cfg)
      : shard(shard), cfg(cfg), sup(*shard.supervisor) {
    const std::size_t n = shard.ports.size();
    ckpt.resize(n);
    stream_pos.assign(n, 0);
    lost.assign(n, 0);
    quarantined_count.assign(n, 0);
    out.resize(cfg.batch);
    scratch.resize(cfg.batch);
    checkpoint(false);  // anchor the pristine state
  }

  Shard& shard;
  const DataplaneConfig& cfg;
  ShardSupervisor& sup;

  std::vector<PortCheckpoint> ckpt;
  std::vector<std::uint64_t> stream_pos;  ///< next expected seq per port
  std::vector<std::uint64_t> lost;
  std::vector<std::uint64_t> quarantined_count;
  std::unordered_set<std::uint64_t> quarantined_keys;
  std::unordered_map<std::uint64_t, int> fault_counts;
  std::size_t uncommitted = 0;       ///< consumed past the committed head
  std::uint64_t mono_bursts = 0;     ///< never rolled back by restore
  std::uint64_t bursts_since_ckpt = 0;
  std::vector<Packet> out;
  std::vector<Packet> scratch;  ///< burst copy: ring slots stay pristine
                                ///< for replay (process mutates in place)

  void checkpoint(bool forced) {
    const std::int64_t t0 = steady_ns();
    shard.ring.commit_pop(uncommitted);
    uncommitted = 0;
    for (std::size_t p = 0; p < shard.ports.size(); ++p) {
      Port& port = *shard.ports[p];
      PortCheckpoint& c = ckpt[p];
      c.pre = port.pre;
      port.sch.snapshot(c.queue);
      c.sch = port.sch.counters();
      c.delivered_bytes = port.delivered_bytes;
      c.stream_pos = stream_pos[p];
    }
    bursts_since_ckpt = 0;
    SupervisionStats& st = shard.result.supervision;
    ++st.checkpoints;
    if (forced) ++st.forced_checkpoints;
    st.checkpoint_ns.add(static_cast<std::uint64_t>(steady_ns() - t0));
  }

  void restore() {
    for (std::size_t p = 0; p < shard.ports.size(); ++p) {
      Port& port = *shard.ports[p];
      PortCheckpoint& c = ckpt[p];
      port.pre = c.pre;
      port.sch.restore(c.queue, c.sch);
      port.delivered_bytes = c.delivered_bytes;
      stream_pos[p] = c.stream_pos;
    }
    // The committed head IS the checkpoint anchor: dropping the
    // uncommitted cursor rewinds consumption to it.
    uncommitted = 0;
    bursts_since_ckpt = 0;
  }

  /// Drain recovery: quiesce the producer, discard the ring, and
  /// itemize everything emitted past the checkpoint anchor into
  /// lost_in_flight. Called with the checkpoint already restored.
  void drain_ring(RecoveryRecord& rec) {
    std::vector<std::uint64_t> emitted(shard.gens.size());
    if (cfg.fused) {
      // Single thread: the producer is us, already quiescent.
      for (std::size_t p = 0; p < shard.gens.size(); ++p) {
        emitted[p] = shard.gens[p].emitted;
      }
    } else {
      shard.pause_request.store(true, std::memory_order_release);
      for (;;) {
        sup.beat(shard.index);  // still alive: don't trip the watchdog
        if (shard.paused.load(std::memory_order_acquire)) {
          emitted = shard.emitted_snapshot;
          break;
        }
        if (shard.producer_done.load(std::memory_order_acquire)) {
          for (std::size_t p = 0; p < shard.gens.size(); ++p) {
            emitted[p] = shard.gens[p].emitted;
          }
          break;
        }
        // Free room so a producer mid-burst can finish its push and
        // reach the pause point (it never pauses holding a packet).
        const std::span<Packet> junk = shard.ring.peek(shard.ring.capacity());
        shard.ring.commit_pop(junk.size());
        std::this_thread::yield();
      }
    }
    // Ring is quiescent: discard everything still in flight.
    for (;;) {
      const std::span<Packet> junk = shard.ring.peek(shard.ring.capacity());
      if (junk.empty()) break;
      shard.ring.commit_pop(junk.size());
    }
    uncommitted = 0;
    // Loss = emitted past the anchor, minus packets in that window
    // already accounted as quarantined (consumed before the fault).
    for (std::size_t p = 0; p < shard.ports.size(); ++p) {
      const std::uint64_t anchor = ckpt[p].stream_pos;
      std::uint64_t window = emitted[p] - anchor;
      for (const QuarantineRecord& q : shard.result.quarantine) {
        if (q.port == shard.first_port + p && q.seq >= anchor &&
            q.seq < emitted[p]) {
          --window;
        }
      }
      lost[p] += window;
      rec.lost += window;
      stream_pos[p] = emitted[p];
    }
    rec.drained = true;
    // Re-anchor so a later drain cannot re-count this window as lost.
    checkpoint(false);
    if (!cfg.fused) {
      shard.pause_request.store(false, std::memory_order_release);
    }
  }

  void recover(const ShardFault& f) {
    SupervisionStats& st = shard.result.supervision;
    const std::int64_t t0 = steady_ns();
    RecoveryRecord rec;
    rec.cause = f.cause;
    rec.shard = shard.index;
    rec.at_burst = mono_bursts;
    rec.start_ns = t0;
    restore();
    if (f.cause == RecoveryRecord::Cause::kDesync) {
      ++st.desyncs;
      // The uncommitted region is not trustworthy to replay.
      drain_ring(rec);
    } else if (cfg.supervision.drain_on_restore) {
      drain_ring(rec);
    }
    rec.restore_ns = steady_ns() - t0;
    ++st.restores;
    st.recovery_ns.add(static_cast<std::uint64_t>(rec.restore_ns));
    shard.result.recoveries.push_back(rec);
  }

  /// Injected stall: wedge (no heartbeats) until the watchdog's kill
  /// verdict arrives, then abort the burst into recovery. The cap
  /// bounds the wedge if the watchdog never fires (transient stall:
  /// resume in place). Sleeps instead of spinning so the watchdog gets
  /// CPU on small hosts.
  void stall(TimeNs ns) {
    ShardHealth& h = sup.health(shard.index);
    h.kill.store(false, std::memory_order_release);  // drop stale verdicts
    const std::int64_t t0 = steady_ns();
    std::int64_t cap = ns;
    if (cap > cfg.supervision.stall_safety_ns) {
      cap = cfg.supervision.stall_safety_ns;
    }
    for (;;) {
      if (h.kill.load(std::memory_order_acquire)) {
        h.kill.store(false, std::memory_order_release);
        SupervisionStats& st = shard.result.supervision;
        ++st.watchdog_detects;
        st.detect_ns.add(h.detect_age_ns.load());
        sup.beat(shard.index);
        throw ShardFault{RecoveryRecord::Cause::kStall};
      }
      if (steady_ns() - t0 >= cap) return;  // transient: resume in place
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  /// Worker-side events armed for this burst (monotonic counter, so a
  /// replayed burst never re-fires a consumed event).
  void fire_worker_events() {
    if (shard.program == nullptr) return;
    SupervisionStats& st = shard.result.supervision;
    for (ShardFaultProgram::Crash& c : shard.program->crashes) {
      if (!c.fired && mono_bursts >= c.at_burst) {
        c.fired = true;
        ++st.crashes;
        throw ShardFault{RecoveryRecord::Cause::kCrash};
      }
    }
    for (ShardFaultProgram::Stall& s : shard.program->stalls) {
      if (!s.fired && mono_bursts >= s.at_burst) {
        s.fired = true;
        ++st.stalls;
        stall(s.stall_ns);
      }
    }
  }

  /// Validate + process one burst. Validation order per packet: dst
  /// range, then stream continuity (either failure = ring desync), then
  /// the poison check (quarantine bookkeeping). The ring slots are
  /// copied into `scratch` before processing so a restore can replay
  /// them untouched.
  void process_burst(std::span<Packet> burst) {
    const bool poison = shard.faults != nullptr && shard.faults->any_poison();
    SupervisionStats& st = shard.result.supervision;
    std::size_t i = 0;
    while (i < burst.size()) {
      Packet& p = burst[i];
      const std::size_t local =
          static_cast<std::size_t>(p.dst) - shard.first_port;
      if (local >= shard.ports.size()) {
        throw ShardFault{RecoveryRecord::Cause::kDesync, p.dst, p.seq};
      }
      if (p.seq != static_cast<std::uint32_t>(stream_pos[local])) {
        throw ShardFault{RecoveryRecord::Cause::kDesync, p.dst, p.seq};
      }
      if (p.size_bytes <= 0) {
        if (!poison) {
          // Corruption with no armed poison schedule: treat as desync.
          throw ShardFault{RecoveryRecord::Cause::kDesync, p.dst, p.seq};
        }
        const std::uint64_t key = FaultSchedule::poison_key(p.dst, p.seq);
        if (quarantined_keys.contains(key)) {
          ++stream_pos[local];  // replay of an isolated identity: skip
          ++i;
          continue;
        }
        ++st.poison_faults;
        const int count = ++fault_counts[key];
        if (count >= cfg.supervision.quarantine_after) {
          quarantined_keys.insert(key);
          ++quarantined_count[local];
          ++st.quarantined;
          shard.result.quarantine.push_back(
              {shard.index, static_cast<std::size_t>(p.dst), p.seq, p.tenant,
               mono_bursts, count});
          ++stream_pos[local];
          ++i;
          continue;
        }
        throw ShardFault{RecoveryRecord::Cause::kPoison, p.dst, p.seq};
      }
      // Healthy run: contiguous in dst and seq, poison-free.
      const NodeId dst = p.dst;
      std::uint32_t expect = p.seq + 1;
      std::size_t j = i + 1;
      while (j < burst.size() && burst[j].dst == dst &&
             burst[j].seq == expect && burst[j].size_bytes > 0) {
        ++j;
        ++expect;
      }
      const std::size_t n = j - i;
      std::copy(burst.begin() + static_cast<std::ptrdiff_t>(i),
                burst.begin() + static_cast<std::ptrdiff_t>(j),
                scratch.begin());
      process_span(*shard.ports[local], std::span<Packet>(scratch.data(), n),
                   out, cfg);
      stream_pos[local] += n;
      i = j;
    }
  }

  /// One supervised consume step: heartbeat, checkpoint cadence, peek
  /// past the uncommitted region, process, advance — or catch a fault
  /// and recover. Returns packets consumed (0 = ring empty).
  std::size_t consume_once() {
    sup.beat(shard.index);  // progress and idle polls both beat
    if (bursts_since_ckpt >= cfg.supervision.checkpoint_interval_bursts) {
      checkpoint(false);
    } else if (uncommitted + cfg.batch > shard.ring.capacity()) {
      // Commit before the ring would wedge on uncommitted slots.
      checkpoint(true);
    }
    const std::span<Packet> burst = shard.ring.peek_at(uncommitted, cfg.batch);
    if (burst.empty()) return 0;
    ++mono_bursts;
    note_burst(shard, burst.size());
    try {
      fire_worker_events();
      process_burst(burst);
      uncommitted += burst.size();
      ++bursts_since_ckpt;
    } catch (const ShardFault& f) {
      recover(f);
    }
    return burst.size();
  }

  /// Release the uncommitted tail (the loop only ends once nothing past
  /// it is left), then publish the books.
  void finish() {
    shard.ring.commit_pop(uncommitted);
    uncommitted = 0;
    sup.health(shard.index).done.store(true, std::memory_order_release);
    finalize_shard(shard, out);
    ShardResult& r = shard.result;
    for (std::size_t p = 0; p < shard.ports.size(); ++p) {
      r.ports[p].quarantined = quarantined_count[p];
      r.ports[p].lost_in_flight = lost[p];
    }
  }
};

/// Worker loop for the pipelined (two threads per shard) mode: consume
/// until the producer is done and nothing past the consumer's
/// uncommitted region is left in the ring.
template <typename Consumer>
void worker_loop(Shard& shard, const DataplaneConfig& cfg) {
  Consumer consumer(shard, cfg);
  for (;;) {
    if (consumer.consume_once() == 0) {
      if (shard.producer_done.load(std::memory_order_acquire) &&
          shard.ring.size_approx() == consumer.uncommitted) {
        break;
      }
      ++shard.result.empty_polls;
      std::this_thread::yield();
    }
  }
  consumer.finish();
}

/// Fused run-to-completion loop: generation and consumption interleave
/// on the shard's single thread (generate a burst per port, then drain
/// the ring). Same per-port operation order as the pipelined mode — the
/// books are identical — but with no cross-thread handoff, so on hosts
/// with fewer cores than threads the measurement reflects pipeline cost
/// rather than OS scheduling.
template <typename Consumer>
void fused_loop(Shard& shard, const DataplaneConfig& cfg) {
  Consumer consumer(shard, cfg);
  bool producing = true;
  while (producing) {
    producing = produce_round(shard, cfg, /*spin=*/false);
    while (consumer.consume_once() > 0) {
    }
  }
  shard.producer_done.store(true, std::memory_order_release);
  consumer.finish();
}

PlanBundle make_plan(const DataplaneConfig& cfg) {
  PlanBundle bundle;
  qvisor::SynthesizerConfig sc;
  sc.rank_space = 1u << 16;
  if (cfg.groups > 0) {
    // Group-compiled mode: the same two-tier policy shape written over
    // `groups` contiguous tenant-id blocks.
    const std::size_t groups = std::min(cfg.groups, cfg.tenants);
    std::string text;
    for (std::size_t g = 0; g < groups; ++g) {
      const std::size_t lo = g * cfg.tenants / groups;
      const std::size_t hi = (g + 1) * cfg.tenants / groups - 1;
      text += "group g" + std::to_string(g) + " = " + std::to_string(lo) +
              ".." + std::to_string(hi) + " bounds 0..99\n";
    }
    text += "policy g0";
    for (std::size_t g = 1; g < groups; ++g) {
      text += (g == 1) ? " >> g1" : " + g" + std::to_string(g);
    }
    text += "\n";
    const control::GroupCompiler::Result res =
        control::GroupCompiler(sc).compile_text(text);
    if (!res.ok()) {
      throw std::runtime_error("dataplane: group compile failed: " +
                               res.error);
    }
    bundle.group = std::make_shared<const control::CompiledGroupPlan>(
        std::move(*res.plan));
    return bundle;
  }
  std::vector<qvisor::TenantSpec> tenants;
  std::string policy_text;
  for (std::size_t t = 0; t < cfg.tenants; ++t) {
    qvisor::TenantSpec spec;
    spec.id = static_cast<TenantId>(t);
    spec.name = "t" + std::to_string(t);
    spec.declared_bounds = {0, 99};
    tenants.push_back(std::move(spec));
    if (t == 0) {
      policy_text = "t0";
    } else {
      policy_text += (t == 1) ? " >> t1" : " + t" + std::to_string(t);
    }
  }
  const qvisor::PolicyParseResult parsed = qvisor::parse_policy(policy_text);
  if (!parsed.policy) {
    throw std::runtime_error("dataplane: policy parse failed: " +
                             parsed.error);
  }
  const qvisor::Synthesizer::Result res =
      qvisor::Synthesizer(sc).synthesize(tenants, *parsed.policy);
  if (!res.ok()) {
    throw std::runtime_error("dataplane: synthesis failed: " + res.error);
  }
  bundle.plan = *res.plan;
  return bundle;
}

}  // namespace

void PortBook::add(const PortBook& o) {
  generated += o.generated;
  processed += o.processed;
  unknown_dropped += o.unknown_dropped;
  admission_dropped += o.admission_dropped;
  rate_dropped += o.rate_dropped;
  share_dropped += o.share_dropped;
  quantile_dropped += o.quantile_dropped;
  enqueued += o.enqueued;
  dequeued += o.dequeued;
  queue_dropped += o.queue_dropped;
  residual += o.residual;
  delivered_bytes += o.delivered_bytes;
  quarantined += o.quarantined;
  lost_in_flight += o.lost_in_flight;
}

const char* recovery_cause_name(RecoveryRecord::Cause cause) {
  switch (cause) {
    case RecoveryRecord::Cause::kStall:
      return "stall";
    case RecoveryRecord::Cause::kCrash:
      return "crash";
    case RecoveryRecord::Cause::kPoison:
      return "poison";
    case RecoveryRecord::Cause::kDesync:
      return "desync";
  }
  return "unknown";
}

PortBook ShardResult::book() const {
  PortBook sum;
  for (const PortBook& b : ports) sum.add(b);
  return sum;
}

PortBook DataplaneResult::book() const {
  PortBook sum;
  for (const ShardResult& s : shards) sum.add(s.book());
  return sum;
}

SupervisionStats DataplaneResult::supervision() const {
  SupervisionStats sum;
  for (const ShardResult& s : shards) sum.merge(s.supervision);
  return sum;
}

double DataplaneResult::pps() const {
  if (wall_seconds <= 0.0) return 0.0;
  return static_cast<double>(book().processed) / wall_seconds;
}

void DataplaneResult::export_metrics(obs::Registry& reg) const {
  const auto emit = [&reg](const std::string& prefix, const PortBook& b) {
    reg.counter(prefix + ".generated").inc(b.generated);
    reg.counter(prefix + ".processed").inc(b.processed);
    reg.counter(prefix + ".unknown_dropped").inc(b.unknown_dropped);
    reg.counter(prefix + ".admission_dropped").inc(b.admission_dropped);
    reg.counter(prefix + ".rate_dropped").inc(b.rate_dropped);
    reg.counter(prefix + ".share_dropped").inc(b.share_dropped);
    reg.counter(prefix + ".quantile_dropped").inc(b.quantile_dropped);
    reg.counter(prefix + ".enqueued").inc(b.enqueued);
    reg.counter(prefix + ".dequeued").inc(b.dequeued);
    reg.counter(prefix + ".delivered_bytes").inc(b.delivered_bytes);
    reg.counter(prefix + ".quarantined").inc(b.quarantined);
    reg.counter(prefix + ".lost_in_flight").inc(b.lost_in_flight);
  };
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const std::string prefix = "dataplane.shard" + std::to_string(s);
    emit(prefix, shards[s].book());
    reg.counter(prefix + ".batches").inc(shards[s].batches);
    reg.counter(prefix + ".empty_polls").inc(shards[s].empty_polls);
    reg.counter(prefix + ".full_spins").inc(shards[s].full_spins);
    reg.histogram(prefix + ".batch_pkts").merge(shards[s].batch_pkts);
    reg.histogram(prefix + ".ring_occupancy")
        .merge(shards[s].ring_occupancy);
  }
  emit("dataplane.total", book());
  reg.set_gauge("dataplane.pps", pps());
  reg.set_gauge("dataplane.wall_seconds", wall_seconds);
  const SupervisionStats sup = supervision();
  if (sup.checkpoints > 0 || sup.watchdog_detects > 0) {
    reg.counter("dataplane.supervisor.checkpoints").inc(sup.checkpoints);
    reg.counter("dataplane.supervisor.forced_checkpoints")
        .inc(sup.forced_checkpoints);
    reg.counter("dataplane.supervisor.restores").inc(sup.restores);
    reg.counter("dataplane.supervisor.stalls").inc(sup.stalls);
    reg.counter("dataplane.supervisor.crashes").inc(sup.crashes);
    reg.counter("dataplane.supervisor.poison_faults").inc(sup.poison_faults);
    reg.counter("dataplane.supervisor.quarantined").inc(sup.quarantined);
    reg.counter("dataplane.supervisor.desyncs").inc(sup.desyncs);
    reg.counter("dataplane.supervisor.watchdog_detects")
        .inc(sup.watchdog_detects);
    reg.histogram("dataplane.supervisor.checkpoint_ns")
        .merge(sup.checkpoint_ns);
    reg.histogram("dataplane.supervisor.recovery_ns").merge(sup.recovery_ns);
    reg.histogram("dataplane.supervisor.detect_ns").merge(sup.detect_ns);
  }
}

DataplaneResult run_dataplane(const DataplaneConfig& config) {
  if (config.shards == 0 || config.ports_per_shard == 0 ||
      config.batch == 0 || config.tenants == 0 ||
      config.packets_per_port == 0) {
    throw std::invalid_argument(
        "dataplane: shards, ports_per_shard, batch, tenants, "
        "packets_per_port must be > 0");
  }
  const bool supervised = config.supervision.enabled;
  if (!supervised) {
    for (const netsim::FaultEvent& ev : config.fault_plan.events) {
      if (netsim::FaultEvent::is_dataplane(ev.kind)) {
        throw std::invalid_argument(
            "dataplane: fault_plan has dataplane events but "
            "supervision.enabled is false");
      }
    }
  }
  const PlanBundle plan = make_plan(config);
  FaultSchedule schedule;
  if (supervised) {
    schedule =
        FaultSchedule(config.fault_plan, config.shards, config.ports_per_shard);
  }
  std::unique_ptr<ShardSupervisor> supervisor;
  if (supervised) {
    supervisor =
        std::make_unique<ShardSupervisor>(config.shards, config.supervision);
  }

  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(config.shards);
  for (std::size_t s = 0; s < config.shards; ++s) {
    auto shard =
        std::make_unique<Shard>(config.ring_capacity,
                                /*first_port=*/s * config.ports_per_shard);
    for (std::size_t p = 0; p < config.ports_per_shard; ++p) {
      shard->ports.push_back(std::make_unique<Port>(plan, config));
      shard->gens.emplace_back(config.seed, shard->first_port + p);
    }
    shard->result.ports.resize(config.ports_per_shard);
    shard->index = s;
    if (supervised) {
      shard->faults = &schedule;
      shard->program = &schedule.shard(s);
      shard->supervisor = supervisor.get();
      shard->emitted_snapshot.assign(config.ports_per_shard, 0);
    }
    shards.push_back(std::move(shard));
  }
  if (supervisor) supervisor->start();

  // One thread per fused shard, or a generator + worker pair per
  // pipelined shard; the pool is sized so every task gets a dedicated
  // thread (the tasks are run-to-completion loops, not short-lived
  // jobs).
  using ShardLoop = void (*)(Shard&, const DataplaneConfig&);
  const ShardLoop loop =
      supervised ? (config.fused ? fused_loop<Supervised>
                                 : worker_loop<Supervised>)
                 : (config.fused ? fused_loop<Direct> : worker_loop<Direct>);
  exec::ThreadPool pool((config.fused ? 1 : 2) * config.shards);
  const auto start = std::chrono::steady_clock::now();
  for (auto& shard : shards) {
    Shard* sp = shard.get();
    const DataplaneConfig* cfg = &config;
    if (!config.fused) {
      pool.submit([sp, cfg] { producer_loop(*sp, *cfg); });
    }
    pool.submit([loop, sp, cfg] { loop(*sp, *cfg); });
  }
  pool.wait_idle();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  DataplaneResult result;
  result.wall_seconds = wall;
  result.balanced = true;
  if (supervisor) supervisor->stop();
  for (auto& shard : shards) {
    ShardResult& r = shard->result;
    r.full_spins = shard->full_spins;
    for (std::size_t p = 0; p < r.ports.size(); ++p) {
      r.ports[p].generated = shard->gens[p].emitted;
      if (!r.ports[p].balanced()) result.balanced = false;
    }
    result.shards.push_back(std::move(r));
  }
  return result;
}

}  // namespace qv::dataplane
