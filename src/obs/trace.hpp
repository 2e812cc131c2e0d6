// Timeline tracer: a bounded ring buffer of trace events exported as
// Chrome trace-event JSON (load trace.json in Perfetto or
// chrome://tracing).
//
// Design constraints, in order:
//  1. disabled must be near-free — every producer guards with
//     `if (tracer && tracer->enabled(cat))`, so the disabled data plane
//     pays at most one pointer test (usually on a null pointer);
//  2. enabled must never allocate on the hot path — events are POD
//     rows written into a pre-sized ring; when the ring is full the
//     OLDEST event is overwritten (the tail of a run is what you
//     usually want) and `dropped()` counts the loss;
//  3. names are `const char*` and must outlive the tracer — string
//     literals, or dynamic labels pinned once via intern().
//
// Timestamps are SIMULATED time (ns). Spans ('X' events) may carry a
// wall-clock duration instead — the simulator's dispatch spans do, so
// a Perfetto timeline shows where simulated time went AND what each
// event cost to execute; producers say which convention they use.
//
// Events carry a `tid` lane: Perfetto renders one row per tid, so
// per-port queue depth counters and per-port enqueue/drop instants get
// their own labelled swimlanes (set_thread_name). The `tid` is a
// SIMULATED lane, not an OS thread: a Tracer is owned by one run (one
// sweep-worker thread), asserted in debug builds via ThreadAffinity —
// concurrent runs each carry their own ring.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "util/thread_affinity.hpp"
#include "util/time.hpp"

namespace qv::obs {

enum class TraceCategory : std::uint8_t {
  kSim = 0,      ///< simulator event dispatch
  kSched = 1,    ///< scheduler enqueue/dequeue/drop, queue depth
  kQvisor = 2,   ///< preprocessor / synthesis / plan installs
  kRuntime = 3,  ///< runtime controller, monitor verdicts
  kMgmt = 4,     ///< config store ops, rollout waves/probes/aborts
};

constexpr std::uint32_t trace_bit(TraceCategory c) {
  return 1u << static_cast<unsigned>(c);
}
inline constexpr std::uint32_t kTraceAll = 0x1F;

const char* trace_category_name(TraceCategory c);

struct TraceEvent {
  const char* name;   ///< must outlive the tracer (literal or interned)
  TraceCategory cat;
  char ph;            ///< 'X' complete, 'i' instant, 'C' counter
  std::uint32_t tid;  ///< swimlane (0 = the simulator itself)
  TimeNs ts;          ///< simulated time
  TimeNs dur;         ///< 'X' only; producers may record wall-clock ns
  const char* arg_name;  ///< nullptr = no args payload
  std::uint64_t arg;
};

class Tracer {
 public:
  explicit Tracer(std::size_t capacity = 1u << 16);

  /// Category filter. Disabled (mask 0) by default: attaching a tracer
  /// is explicit opt-in per category.
  bool enabled(TraceCategory c) const { return (mask_ & trace_bit(c)) != 0; }
  void set_mask(std::uint32_t mask) { mask_ = mask; }
  std::uint32_t mask() const { return mask_; }
  void enable_all() { mask_ = kTraceAll; }
  void disable() { mask_ = 0; }

  // Producers are expected to have checked enabled(cat) already (that
  // is the cheap guard); these re-check nothing.
  void instant(TraceCategory cat, const char* name, TimeNs ts,
               std::uint32_t tid = 0, const char* arg_name = nullptr,
               std::uint64_t arg = 0) {
    push({name, cat, 'i', tid, ts, 0, arg_name, arg});
  }
  void complete(TraceCategory cat, const char* name, TimeNs ts, TimeNs dur,
                std::uint32_t tid = 0, const char* arg_name = nullptr,
                std::uint64_t arg = 0) {
    push({name, cat, 'X', tid, ts, dur, arg_name, arg});
  }
  void counter(TraceCategory cat, const char* name, TimeNs ts,
               std::uint64_t value, std::uint32_t tid = 0) {
    push({name, cat, 'C', tid, ts, 0, "value", value});
  }

  /// Pin a dynamically-built label for the tracer's lifetime (per-port
  /// names). Setup-time only; interning the same string twice returns
  /// the first copy.
  const char* intern(const std::string& s);

  /// Label a tid swimlane (emitted as trace metadata).
  void set_thread_name(std::uint32_t tid, const std::string& name);

  std::size_t size() const { return count_; }
  std::size_t capacity() const { return ring_.size(); }
  std::uint64_t dropped() const { return dropped_; }
  void clear();

  /// Buffered events, oldest first.
  std::vector<TraceEvent> events() const;

  /// Chrome trace-event JSON: {"traceEvents":[...],...}. Streams the
  /// ring in place, in chunks of about 64 KiB.
  void write_json(std::ostream& out) const;
  std::string to_json() const;

 private:
  void push(const TraceEvent& e) {
    affinity_.check();  // single-owner; compiles away under NDEBUG
    ring_[next_] = e;
    next_ = next_ + 1 == ring_.size() ? 0 : next_ + 1;
    if (count_ < ring_.size()) {
      ++count_;
    } else {
      ++dropped_;
    }
  }

  std::vector<TraceEvent> ring_;
  std::size_t next_ = 0;
  std::size_t count_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint32_t mask_ = 0;
  std::deque<std::string> interned_;
  std::map<std::uint32_t, std::string> thread_names_;
  [[no_unique_address]] ThreadAffinity affinity_;
};

}  // namespace qv::obs
