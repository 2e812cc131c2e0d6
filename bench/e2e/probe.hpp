// Timing primitives for the traced benchmark runs: a monotonic clock,
// the coarse span log (written once at exit as a Chrome trace), and the
// per-call accounting the traced copies wrap around calls into a layer.
//
// Every timing here is taken in the benchmark's own files, around calls
// into the repository's public APIs; nothing under src/ is instrumented.
#pragma once

#include <time.h>

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace qvb {

/// CLOCK_MONOTONIC in ns: the clock Python's time.monotonic() reads, so
/// run.py can subtract its spawn stamp from a child's ready stamp.
inline std::int64_t mono_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Coarse spans (cells, runs, grids, set-up calls) kept in memory and
/// written as one Chrome-trace file. Thread-safe: sweep cells and
/// dataplane shards record from worker threads.
class SpanLog {
 public:
  /// Open a span under `parent` (-1 = root); returns its id.
  int begin(const char* name, int parent);
  /// Close span `id`; returns its duration in ns.
  std::int64_t end(int id);
  void write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
    unsigned tid;
  };
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span: records into `log` when one is given and always measures
/// its own duration, so the layer sums come from the same clock reads.
class Scope {
 public:
  Scope(SpanLog* log, const char* name, int parent)
      : log_(log),
        id_(log != nullptr ? log->begin(name, parent) : -1),
        start_(mono_ns()) {}
  ~Scope() { finish(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  int id() const { return id_; }
  /// Close the span (idempotent); returns its duration in ns.
  std::int64_t finish() {
    if (dur_ < 0) {
      dur_ = mono_ns() - start_;
      if (log_ != nullptr) log_->end(id_);
    }
    return dur_;
  }

 private:
  SpanLog* log_;
  int id_;
  std::int64_t start_;
  std::int64_t dur_ = -1;
};

/// Cost of one mono_ns() call, measured once: every timed call's
/// duration includes about one clock read, which the estimates remove.
std::int64_t clock_overhead_ns();

/// The innermost timed call on this thread. Inside a callback region
/// (exact_children) every layer call is timed and charged to it, so the
/// region's self time never includes a layer it called into. Inside a
/// sampled layer call nested layer calls are left untimed, so the
/// sample carries no nested clock reads.
struct Frame {
  bool exact_children = false;
  std::int64_t child_ns = 0;
};
inline thread_local Frame* t_frame = nullptr;

/// Calls across one layer boundary. Outside any region one call in 16
/// reads the clock; the rest (and calls nested inside a sampled call)
/// are extrapolated by call count.
struct CallStats {
  std::uint64_t calls = 0;
  std::uint64_t items = 0;  ///< packets carried by those calls
  std::uint64_t sampled = 0;
  std::int64_t sampled_ns = 0;
  std::uint64_t exact = 0;
  std::int64_t exact_ns = 0;
  std::uint32_t tick = 0;

  /// Estimated time of the calls made outside any callback region.
  double outside_ns() const {
    if (sampled == 0) return 0.0;
    return static_cast<double>(sampled_ns) *
           static_cast<double>(calls - exact) / static_cast<double>(sampled);
  }
  double total_ns() const { return static_cast<double>(exact_ns) + outside_ns(); }

  template <typename F>
  decltype(auto) time(F&& f) {
    ++calls;
    Frame* parent = t_frame;
    if (parent != nullptr ? !parent->exact_children : (++tick & 15u) != 0) {
      return f();
    }
    Timed timed(*this, parent);
    return f();
  }

 private:
  /// Opens a frame for one timed call and books it on scope exit.
  struct Timed {
    Timed(CallStats& s, Frame* parent) : s(s), parent(parent) {
      t_frame = &self;
      t0 = mono_ns();
    }
    ~Timed() {
      const std::int64_t dur = mono_ns() - t0 - clock_overhead_ns();
      t_frame = parent;
      if (parent != nullptr) {
        parent->child_ns += dur;
        ++s.exact;
        s.exact_ns += dur;
      } else {
        ++s.sampled;
        s.sampled_ns += dur;
      }
    }
    Timed(const Timed&) = delete;
    Timed& operator=(const Timed&) = delete;
    CallStats& s;
    Frame* parent;
    Frame self;
    std::int64_t t0 = 0;
  };
};

/// A rare callback that is timed on every call; calls it makes into
/// timed layers are subtracted to give its self time.
struct RegionStats {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;
  std::int64_t child_ns = 0;

  std::int64_t self_ns() const { return ns - child_ns; }

  template <typename F>
  void time(F&& f) {
    ++calls;
    Frame self{/*exact_children=*/true};
    Frame* parent = t_frame;
    t_frame = &self;
    const std::int64_t t0 = mono_ns();
    f();
    const std::int64_t dur = mono_ns() - t0;
    t_frame = parent;
    ns += dur;
    child_ns += self.child_ns;
  }
};

}  // namespace qvb
