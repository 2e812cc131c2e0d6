// Periodic runtime samplers: named callbacks invoked together on a
// fixed cadence, driven by whatever clock owns the experiment (the
// simulator's timer wheel in this repo).
//
// SamplerSet knows nothing about the simulator — schedule_samplers()
// is a template over any scheduler exposing netsim::Simulator's
// persistent-timer API (reserve_seq, make_timer, arm_timer), which
// keeps obs/ free of a netsim dependency (netsim already depends on
// sched, and sched exports metrics into obs).
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "util/time.hpp"

namespace qv::obs {

class SamplerSet {
 public:
  using Fn = std::function<void(TimeNs now)>;

  void add(std::string name, Fn fn) {
    samplers_.push_back({std::move(name), std::move(fn)});
  }

  /// Run every sampler once at `now`.
  void tick(TimeNs now) {
    ++ticks_;
    for (auto& s : samplers_) s.fn(now);
  }

  std::size_t size() const { return samplers_.size(); }
  std::uint64_t ticks() const { return ticks_; }
  const std::string& name(std::size_t i) const { return samplers_[i].name; }

 private:
  template <typename Sched>
  friend void schedule_samplers(Sched& sim, SamplerSet& samplers,
                                TimeNs interval, TimeNs end);

  struct Sampler {
    std::string name;
    Fn fn;
  };

  /// The one persistent tick timer schedule_samplers() arms, re-armed
  /// from each tick with the next reserved sequence number.
  struct Cadence {
    void* sched = nullptr;  ///< the Sched that schedule_samplers() got
    std::uint64_t timer = 0;
    TimeNs interval = 0;
    TimeNs next_at = 0;           ///< time of the armed tick
    std::uint64_t next_seq = 0;   ///< its reserved sequence number
    std::uint64_t last_seq = 0;   ///< the final tick's
  };

  template <typename Sched>
  static void fire(void* ctx) {
    SamplerSet& self = *static_cast<SamplerSet*>(ctx);
    Cadence& c = self.cadence_;
    const TimeNs now = c.next_at;
    if (c.next_seq != c.last_seq) {
      c.next_at += c.interval;
      ++c.next_seq;
      static_cast<Sched*>(c.sched)->arm_timer(c.timer, c.next_at,
                                              c.next_seq);
    }
    self.tick(now);
  }

  std::vector<Sampler> samplers_;
  std::uint64_t ticks_ = 0;
  Cadence cadence_;
};

/// Run sampler ticks every `interval` on (0, end], from one persistent
/// timer. One sequence number per tick is reserved up front, right
/// here, so each tick keeps the (at, seq) place among same-time events
/// that scheduling it as its own event here would give it. `sim` and
/// `samplers` must outlive the run (experiments own both on the stack);
/// a SamplerSet is scheduled at most once.
template <typename Sched>
void schedule_samplers(Sched& sim, SamplerSet& samplers, TimeNs interval,
                       TimeNs end) {
  if (interval <= 0 || interval > end) return;
  SamplerSet::Cadence& c = samplers.cadence_;
  assert(c.sched == nullptr);
  c.next_seq = sim.reserve_seq();
  c.last_seq = c.next_seq;
  for (TimeNs t = 2 * interval; t <= end; t += interval) {
    const std::uint64_t seq = sim.reserve_seq();
    assert(seq == c.last_seq + 1);  // fire() re-arms with next_seq + 1
    c.last_seq = seq;
  }
  c.sched = &sim;
  c.interval = interval;
  c.next_at = interval;
  c.timer = sim.make_timer(&SamplerSet::fire<Sched>, &samplers);
  sim.arm_timer(c.timer, c.next_at, c.next_seq);
}

}  // namespace qv::obs
