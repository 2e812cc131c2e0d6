#include "probe.hpp"

#include <atomic>
#include <fstream>
#include <stdexcept>

#include "obs/json_writer.hpp"

namespace qvb {

namespace {

/// Small dense thread ids for the trace's swimlanes.
unsigned this_tid() {
  static std::atomic<unsigned> next{1};
  thread_local const unsigned tid = next.fetch_add(1);
  return tid;
}

}  // namespace

std::int64_t clock_overhead_ns() {
  static const std::int64_t ns = [] {
    constexpr int kReads = 4096;
    const std::int64_t t0 = mono_ns();
    for (int i = 0; i < kReads; ++i) mono_ns();
    return (mono_ns() - t0) / (kReads + 1);
  }();
  return ns;
}

int SpanLog::begin(const char* name, int parent) {
  const std::int64_t now = mono_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, now, -1, parent, this_tid()});
  return static_cast<int>(spans_.size() - 1);
}

std::int64_t SpanLog::end(int id) {
  const std::int64_t now = mono_ns();
  std::lock_guard<std::mutex> lock(mu_);
  Span& s = spans_.at(static_cast<std::size_t>(id));
  s.end_ns = now;
  return s.end_ns - s.start_ns;
}

void SpanLog::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  std::lock_guard<std::mutex> lock(mu_);
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  qv::obs::JsonWriter w(out);
  w.begin_object();
  w.key("traceEvents").begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::int64_t end = s.end_ns < 0 ? s.start_ns : s.end_ns;
    w.begin_object();
    w.key("name").value(s.name);
    w.key("ph").value("X");
    w.key("pid").value(1);
    w.key("tid").value(s.tid);
    w.key("ts").value(static_cast<double>(s.start_ns - origin) / 1e3);
    w.key("dur").value(static_cast<double>(end - s.start_ns) / 1e3);
    w.key("args").begin_object();
    w.key("id").value(static_cast<std::int64_t>(i));
    w.key("parent").value(s.parent);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << "\n";
}

}  // namespace qvb
