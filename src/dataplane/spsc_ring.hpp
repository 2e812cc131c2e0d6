// Bounded single-producer / single-consumer ring: the queue between a
// traffic-generator thread and the shard worker that owns the ports the
// traffic is destined for (DESIGN.md "Sharded dataplane").
//
// Classic Lamport ring with two refinements that matter at tens of
// millions of packets per second:
//
//   * cached peer indices — the producer re-reads the consumer's head
//     only when its cached copy says the ring LOOKS full (and vice
//     versa), so in steady state each side's fast path touches no
//     cache line the other side writes;
//   * zero-copy burst transfer (DPDK-style) — the only transfer API.
//     The producer borrows a run of free slots (prepare_push), fills
//     it in place and publishes it (commit_push); the consumer borrows
//     a run of readable slots (peek / peek_at), processes it in place
//     and retires it (commit_pop). A whole burst costs ONE atomic load
//     + ONE atomic store per side, amortizing the synchronization (and
//     its cache-coherence traffic) across the burst — the ring twin of
//     the schedulers' enqueue_batch / dequeue_batch span APIs.
//
// The ring never drops: prepare_push returns only the room there is
// and the producer decides what to do with the rest (the dataplane
// spins — backpressure, not loss, so conservation books stay exact).
//
// Thread contract: exactly one producer thread calls prepare_push /
// commit_push and exactly one consumer thread calls peek / peek_at /
// commit_pop for the ring's lifetime. size_approx() may be called from
// either. Indices are free-running uint64_t (they wrap after 2^64
// items, i.e. never); slot = index & (capacity - 1).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace qv::dataplane {

/// Destructive-interference distance. Fixed rather than taken from
/// std::hardware_destructive_interference_size: the library constant
/// varies with -mtune (gcc warns about exactly this), and 64 is right
/// for every target this builds on.
inline constexpr std::size_t kCacheLine = 64;

template <typename T>
class SpscRing {
 public:
  /// Capacity is rounded up to a power of two (minimum 2).
  explicit SpscRing(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const { return mask_ + 1; }

  // Burst transfer: the caller borrows a contiguous run of slots and
  // fills / consumes them in place, so a burst moves through the ring
  // with no intermediate buffer. A returned span is only valid until
  // the matching commit; it may be shorter than `max` (free/readable
  // space, or the wrap boundary — slot runs never wrap, the next call
  // starts at slot 0).

  /// Producer: borrow up to `max` contiguous free slots (empty span
  /// when full). Write them, then commit_push(n) for any n <= size().
  std::span<T> prepare_push(std::size_t max) {
    const std::uint64_t tail = tail_.pos.load(std::memory_order_relaxed);
    std::size_t room = capacity() - static_cast<std::size_t>(
                                        tail - tail_.cached_peer);
    if (room < max) {
      tail_.cached_peer = head_.pos.load(std::memory_order_acquire);
      room = capacity() -
             static_cast<std::size_t>(tail - tail_.cached_peer);
      if (room == 0) return {};
    }
    const std::size_t at = static_cast<std::size_t>(tail) & mask_;
    std::size_t n = max < room ? max : room;
    if (n > capacity() - at) n = capacity() - at;
    return std::span<T>(slots_.data() + at, n);
  }

  /// Producer: publish the first `n` slots of the last prepare_push.
  void commit_push(std::size_t n) {
    tail_.pos.store(tail_.pos.load(std::memory_order_relaxed) + n,
                    std::memory_order_release);
  }

  /// Consumer: borrow up to `max` contiguous readable slots (empty
  /// span when the ring is empty). The items may be mutated in place;
  /// commit_pop(n) retires the first n.
  std::span<T> peek(std::size_t max) {
    const std::uint64_t head = head_.pos.load(std::memory_order_relaxed);
    std::size_t avail =
        static_cast<std::size_t>(head_.cached_peer - head);
    if (avail < max) {
      head_.cached_peer = tail_.pos.load(std::memory_order_acquire);
      avail = static_cast<std::size_t>(head_.cached_peer - head);
      if (avail == 0) return {};
    }
    const std::size_t at = static_cast<std::size_t>(head) & mask_;
    std::size_t n = max < avail ? max : avail;
    if (n > capacity() - at) n = capacity() - at;
    return std::span<T>(slots_.data() + at, n);
  }

  /// Consumer: retire the first `n` slots of the last peek.
  void commit_pop(std::size_t n) {
    head_.pos.store(head_.pos.load(std::memory_order_relaxed) + n,
                    std::memory_order_release);
  }

  /// Consumer: borrow up to `max` contiguous readable slots starting
  /// `offset` items PAST the committed head, without committing
  /// anything. This is the deferred-commit path the supervised
  /// dataplane worker uses: it reads ahead of the committed head and
  /// only commits at checkpoints, so everything consumed since the last
  /// checkpoint is physically still in the ring and a crash can replay
  /// it. Returns an empty span when fewer than offset + 1 items are
  /// published. Slot runs never wrap (same seam rule as peek()).
  std::span<T> peek_at(std::size_t offset, std::size_t max) {
    const std::uint64_t head =
        head_.pos.load(std::memory_order_relaxed) + offset;
    if (head_.cached_peer < head + max) {
      head_.cached_peer = tail_.pos.load(std::memory_order_acquire);
      if (head_.cached_peer <= head) return {};
    }
    const std::size_t avail =
        static_cast<std::size_t>(head_.cached_peer - head);
    const std::size_t at = static_cast<std::size_t>(head) & mask_;
    std::size_t n = max < avail ? max : avail;
    if (n > capacity() - at) n = capacity() - at;
    return std::span<T>(slots_.data() + at, n);
  }

  /// FAULT-INJECTION BACKDOOR (producer side): publish up to `n` slots
  /// WITHOUT writing them, emulating a producer whose tail index ran
  /// ahead of its writes (ring desync). The consumer observes stale
  /// descriptors from a previous lap of the ring. Returns how many
  /// slots were actually published (bounded by free space). Never call
  /// this outside tests / the dataplane fault injector.
  std::size_t corrupt_advance_tail(std::size_t n) {
    const std::uint64_t tail = tail_.pos.load(std::memory_order_relaxed);
    tail_.cached_peer = head_.pos.load(std::memory_order_acquire);
    const std::size_t room =
        capacity() - static_cast<std::size_t>(tail - tail_.cached_peer);
    if (n > room) n = room;
    tail_.pos.store(tail + n, std::memory_order_release);
    return n;
  }

  /// Instantaneous occupancy; exact only from the consumer thread (the
  /// producer may be mid-push), good enough for occupancy histograms.
  std::size_t size_approx() const {
    const std::uint64_t tail = tail_.pos.load(std::memory_order_acquire);
    const std::uint64_t head = head_.pos.load(std::memory_order_acquire);
    return static_cast<std::size_t>(tail - head);
  }

 private:
  /// One side's free-running index plus its cached copy of the peer's,
  /// padded so producer and consumer state never share a cache line.
  struct alignas(kCacheLine) Side {
    std::atomic<std::uint64_t> pos{0};
    std::uint64_t cached_peer = 0;  ///< owned by this side's thread only
  };

  std::vector<T> slots_;
  std::size_t mask_ = 0;
  Side head_;  ///< consumer index (+ cached tail)
  Side tail_;  ///< producer index (+ cached head)
};

}  // namespace qv::dataplane
