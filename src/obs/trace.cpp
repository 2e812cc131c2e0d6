#include "obs/trace.hpp"

#include <charconv>
#include <ostream>
#include <sstream>
#include <string_view>

#include "obs/json_writer.hpp"

namespace qv::obs {

const char* trace_category_name(TraceCategory c) {
  switch (c) {
    case TraceCategory::kSim:
      return "sim";
    case TraceCategory::kSched:
      return "sched";
    case TraceCategory::kQvisor:
      return "qvisor";
    case TraceCategory::kRuntime:
      return "runtime";
    case TraceCategory::kMgmt:
      return "mgmt";
  }
  return "?";
}

Tracer::Tracer(std::size_t capacity) : ring_(capacity == 0 ? 1 : capacity) {}

const char* Tracer::intern(const std::string& s) {
  for (const std::string& existing : interned_) {
    if (existing == s) return existing.c_str();
  }
  interned_.push_back(s);
  return interned_.back().c_str();
}

void Tracer::set_thread_name(std::uint32_t tid, const std::string& name) {
  thread_names_[tid] = name;
}

void Tracer::clear() {
  next_ = 0;
  count_ = 0;
  dropped_ = 0;
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  out.reserve(count_);
  const std::size_t start =
      count_ < ring_.size() ? 0 : next_;  // oldest surviving event
  for (std::size_t i = 0; i < count_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

namespace {

/// Rows render into one reusable buffer that goes to the stream each
/// time it passes this size: bounded memory for any ring capacity.
constexpr std::size_t kFlushBytes = 64 * 1024;

template <typename Int>
void append_int(std::string& out, Int v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

/// Chrome trace timestamps are microseconds; keep ns precision with a
/// fixed three-decimal fraction (avoids double rounding for large ts).
void append_us(std::string& out, TimeNs ns) {
  append_int(out, ns / 1000);
  out += '.';
  const auto frac = static_cast<int>(ns % 1000);
  out += static_cast<char>('0' + frac / 100);
  out += static_cast<char>('0' + (frac / 10) % 10);
  out += static_cast<char>('0' + frac % 10);
}

/// A JSON string; names are escaped only when they need it.
void append_str(std::string& out, std::string_view s) {
  out += '"';
  if (json_needs_escape(s)) {
    out += json_escape(s);
  } else {
    out += s;
  }
  out += '"';
}

}  // namespace

void Tracer::write_json(std::ostream& out) const {
  std::string buf;
  buf.reserve(kFlushBytes + 512);
  buf += R"({"displayTimeUnit":"ms","traceEvents":[)";

  // Process / thread metadata first, so viewers label the lanes.
  buf += R"({"ph":"M","pid":1,"tid":0,"name":"process_name",)"
         R"("args":{"name":"qvisor"}})";
  for (const auto& [tid, name] : thread_names_) {
    buf += R"(,{"ph":"M","pid":1,"tid":)";
    append_int(buf, tid);
    buf += R"(,"name":"thread_name","args":{"name":)";
    append_str(buf, name);
    buf += "}}";
  }

  // The ring in place, oldest first: a full ring starts at next_.
  std::size_t i = count_ < ring_.size() ? 0 : next_;
  for (std::size_t k = 0; k < count_; ++k) {
    const TraceEvent& e = ring_[i];
    i = i + 1 == ring_.size() ? 0 : i + 1;
    buf += R"(,{"name":)";
    append_str(buf, e.name);
    buf += R"(,"cat":")";
    buf += trace_category_name(e.cat);
    buf += R"(","ph":")";
    buf += e.ph;
    buf += R"(","pid":1,"tid":)";
    append_int(buf, e.tid);
    buf += R"(,"ts":)";
    append_us(buf, e.ts);
    if (e.ph == 'X') {
      buf += R"(,"dur":)";
      append_us(buf, e.dur);
    }
    if (e.ph == 'i') buf += R"(,"s":"t")";  // thread-scoped instant
    if (e.arg_name != nullptr) {
      buf += R"(,"args":{)";
      append_str(buf, e.arg_name);
      buf += ':';
      append_int(buf, e.arg);
      buf += '}';
    }
    buf += '}';
    if (buf.size() >= kFlushBytes) {
      out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
      buf.clear();
    }
  }

  buf += R"(],"otherData":{"dropped_events":)";
  append_int(buf, dropped_);
  buf += "}}\n";
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

std::string Tracer::to_json() const {
  std::ostringstream out;
  write_json(out);
  return out.str();
}

}  // namespace qv::obs
