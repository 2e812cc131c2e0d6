#include "dataplane/supervisor.hpp"

#include <chrono>

namespace qv::dataplane {

namespace {

std::int64_t monotonic_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ShardSupervisor::ShardSupervisor(std::size_t shards,
                                 const SupervisionConfig& config)
    : config_(config), cells_(shards) {}

ShardSupervisor::~ShardSupervisor() { stop(); }

void ShardSupervisor::start() {
  stop_.store(false, std::memory_order_relaxed);
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

void ShardSupervisor::stop() {
  stop_.store(true, std::memory_order_release);
  if (watchdog_.joinable()) watchdog_.join();
}

void ShardSupervisor::watchdog_loop() {
  struct Observed {
    std::uint64_t heartbeat = 0;
    std::int64_t changed_at = 0;  ///< when we last saw it move
    bool flagged = false;         ///< kill set; re-arm on next movement
  };
  std::vector<Observed> seen(cells_.size());
  const std::int64_t start = monotonic_ns();
  for (Observed& o : seen) o.changed_at = start;

  while (!stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(config_.watchdog_poll_ns));
    const std::int64_t now = monotonic_ns();
    for (std::size_t s = 0; s < cells_.size(); ++s) {
      ShardHealth& h = cells_[s];
      if (h.done.load(std::memory_order_acquire)) continue;
      Observed& o = seen[s];
      const std::uint64_t hb = h.heartbeat.load(std::memory_order_acquire);
      if (hb != o.heartbeat) {
        // Progress: record it and re-arm (one detect per stall episode).
        o.heartbeat = hb;
        o.changed_at = now;
        o.flagged = false;
        continue;
      }
      if (o.flagged) continue;
      const std::int64_t age = now - o.changed_at;
      if (age < config_.heartbeat_deadline_ns) continue;
      // Stall verdict. A spurious detect (worker descheduled, or idle
      // with an empty ring) is harmless and uncounted: healthy workers
      // never read the kill flag; a stalled worker clears it and
      // records the detect with this age.
      o.flagged = true;
      h.detect_age_ns.store(static_cast<std::uint64_t>(age));
      h.kill.store(true, std::memory_order_release);
    }
  }
}

}  // namespace qv::dataplane
