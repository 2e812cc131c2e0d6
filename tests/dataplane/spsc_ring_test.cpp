// SPSC ring: FIFO ordering, full/empty boundaries, index wraparound,
// partial room, slab seams, and a two-thread stress run (the latter is
// in the tsan preset's test filter — see CMakePresets.json). Every test
// drives the borrow API the dataplane uses: prepare_push / commit_push
// on the producer side, peek / peek_at / commit_pop on the consumer.
#include "dataplane/spsc_ring.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

namespace qv::dataplane {
namespace {

/// Producer: copy as many of `items` as fit into borrowed slots (two
/// borrows when the run crosses the slab seam); returns the count.
template <typename T>
std::size_t push_some(SpscRing<T>& ring, const std::vector<T>& items) {
  std::size_t n = 0;
  while (n < items.size()) {
    const std::span<T> slots = ring.prepare_push(items.size() - n);
    if (slots.empty()) break;
    std::copy_n(items.begin() + static_cast<std::ptrdiff_t>(n), slots.size(),
                slots.begin());
    ring.commit_push(slots.size());
    n += slots.size();
  }
  return n;
}

/// Consumer: move up to `max` items out through borrowed slots, in
/// FIFO order.
template <typename T>
std::vector<T> pop_some(SpscRing<T>& ring, std::size_t max) {
  std::vector<T> out;
  while (out.size() < max) {
    const std::span<T> view = ring.peek(max - out.size());
    if (view.empty()) break;
    out.insert(out.end(), view.begin(), view.end());
    ring.commit_pop(view.size());
  }
  return out;
}

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(1000).capacity(), 1024u);
  EXPECT_EQ(SpscRing<int>(1024).capacity(), 1024u);
}

TEST(SpscRingTest, PopOnEmptyFailsPushOnFullFails) {
  SpscRing<int> ring(4);
  EXPECT_EQ(ring.size_approx(), 0u);
  EXPECT_TRUE(ring.peek(1).empty());
  EXPECT_TRUE(ring.peek_at(0, 1).empty());
  EXPECT_EQ(push_some(ring, {0, 1, 2, 3}), 4u);
  EXPECT_EQ(ring.size_approx(), 4u);
  EXPECT_TRUE(ring.prepare_push(1).empty());  // full
  EXPECT_EQ(pop_some(ring, 1), std::vector<int>{0});
  EXPECT_EQ(push_some(ring, {99}), 1u);  // one slot freed
  EXPECT_TRUE(ring.prepare_push(1).empty());
  EXPECT_EQ(pop_some(ring, 8), (std::vector<int>{1, 2, 3, 99}));
  EXPECT_TRUE(ring.peek(1).empty());
  EXPECT_EQ(ring.size_approx(), 0u);
}

TEST(SpscRingTest, BatchPushAcceptsPartialWhenNearlyFull) {
  SpscRing<int> ring(8);
  std::vector<int> six(6);
  std::iota(six.begin(), six.end(), 0);
  EXPECT_EQ(push_some(ring, six), 6u);
  // Only 2 slots left: a 6-slot borrow is partially granted.
  const std::span<int> slots = ring.prepare_push(6);
  ASSERT_EQ(slots.size(), 2u);
  slots[0] = 0;
  slots[1] = 1;
  ring.commit_push(2);
  EXPECT_TRUE(ring.prepare_push(6).empty());  // full
  EXPECT_EQ(pop_some(ring, 16),
            (std::vector<int>{0, 1, 2, 3, 4, 5, 0, 1}));
  EXPECT_TRUE(ring.peek(16).empty());  // empty again
}

TEST(SpscRingTest, OrderPreservedAcrossWraparound) {
  SpscRing<std::uint32_t> ring(8);
  // Free-running indices: move far more items than the capacity so
  // slot indices wrap many times; FIFO order must hold throughout.
  std::uint32_t next_in = 0, next_out = 0;
  std::vector<std::uint32_t> buf(5);
  for (int round = 0; round < 1000; ++round) {
    for (auto& v : buf) v = next_in++;
    std::vector<std::uint32_t> rest = buf;
    for (;;) {
      const auto pushed = static_cast<std::ptrdiff_t>(push_some(ring, rest));
      rest.erase(rest.begin(), rest.begin() + pushed);
      if (rest.empty()) break;
      for (const std::uint32_t v : pop_some(ring, 3)) EXPECT_EQ(v, next_out++);
    }
  }
  for (const std::uint32_t v : pop_some(ring, 8)) EXPECT_EQ(v, next_out++);
  EXPECT_EQ(next_out, next_in);
  EXPECT_EQ(ring.size_approx(), 0u);
}

TEST(SpscRingTest, ZeroCopyBorrowRoundTrip) {
  SpscRing<int> ring(8);
  std::span<int> slots = ring.prepare_push(5);
  ASSERT_EQ(slots.size(), 5u);
  for (int i = 0; i < 5; ++i) slots[i] = 10 + i;
  ring.commit_push(3);  // publish fewer than prepared is allowed
  EXPECT_EQ(ring.size_approx(), 3u);

  std::span<int> view = ring.peek(8);
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view[0], 10);
  view[0] = 77;  // in-place mutation is part of the contract
  ring.commit_pop(1);
  view = ring.peek(8);
  ASSERT_EQ(view.size(), 2u);
  EXPECT_EQ(view[0], 11);
  ring.commit_pop(0);  // no-op
  EXPECT_EQ(ring.peek(8)[0], 11);
  ring.commit_pop(2);
  EXPECT_EQ(ring.size_approx(), 0u);
  EXPECT_TRUE(ring.peek(4).empty());
}

TEST(SpscRingTest, ZeroCopySpansNeverWrap) {
  SpscRing<int> ring(8);
  // Advance both indices to 6 so the next contiguous run hits the
  // physical end of the slab after 2 slots.
  ring.prepare_push(6);
  ring.commit_push(6);
  ASSERT_EQ(ring.peek(6).size(), 6u);
  ring.commit_pop(6);
  std::span<int> slots = ring.prepare_push(8);
  EXPECT_EQ(slots.size(), 2u);  // clipped at the wrap boundary
  slots[0] = 100;
  slots[1] = 101;
  ring.commit_push(2);
  slots = ring.prepare_push(8);
  EXPECT_EQ(slots.size(), 6u);  // continues from slot 0
  slots[0] = 102;
  ring.commit_push(1);
  std::span<int> view = ring.peek(8);
  EXPECT_EQ(view.size(), 2u);  // consumer side clips at the same seam
  EXPECT_EQ(view[0], 100);
  EXPECT_EQ(view[1], 101);
  ring.commit_pop(2);
  view = ring.peek(8);
  ASSERT_EQ(view.size(), 1u);
  EXPECT_EQ(view[0], 102);
}

TEST(SpscRingTest, PartialCommitRepreparesTheUncommittedSlots) {
  SpscRing<int> ring(8);
  std::span<int> slots = ring.prepare_push(6);
  ASSERT_EQ(slots.size(), 6u);
  for (int i = 0; i < 6; ++i) slots[i] = i;
  ring.commit_push(2);  // publish a strict prefix of the borrow
  EXPECT_EQ(ring.size_approx(), 2u);
  // The unpublished tail of the borrow was never handed to the
  // consumer: the next prepare returns those same slab slots again
  // (previous writes still visible — they are just storage).
  slots = ring.prepare_push(6);
  ASSERT_EQ(slots.size(), 6u);
  EXPECT_EQ(slots[0], 2);
  for (int i = 0; i < 6; ++i) slots[i] = 10 + i;
  ring.commit_push(6);
  EXPECT_EQ(pop_some(ring, 8),
            (std::vector<int>{0, 1, 10, 11, 12, 13, 14, 15}));
}

TEST(SpscRingTest, PeekAndCommitPopAtTheExactSlabSeam) {
  SpscRing<int> ring(8);
  ASSERT_EQ(push_some(ring, {0, 1, 2, 3, 4, 5, 6, 7}), 8u);
  // Head at slab slot 0: the whole slab is one contiguous run.
  std::span<int> view = ring.peek(16);
  ASSERT_EQ(view.size(), 8u);
  EXPECT_EQ(view[7], 7);
  ring.commit_pop(8);  // head lands exactly on the seam (index 8)
  EXPECT_EQ(ring.size_approx(), 0u);
  EXPECT_TRUE(ring.peek(1).empty());
  // Indices 8..11 map back to slab slots 0..3: a peek straddling
  // nothing must start clean at the seam, not read stale slots 4..7.
  ASSERT_EQ(push_some(ring, {100, 101, 102, 103}), 4u);
  view = ring.peek(16);
  ASSERT_EQ(view.size(), 4u);
  EXPECT_EQ(view[0], 100);
  EXPECT_EQ(view[3], 103);
  ring.commit_pop(4);
  EXPECT_EQ(ring.size_approx(), 0u);
}

TEST(SpscRingTest, PeekAtReadsPastAnUncommittedRegion) {
  SpscRing<int> ring(8);
  ASSERT_EQ(push_some(ring, {0, 1, 2, 3, 4, 5}), 6u);
  // Deferred-commit consumption: adjacent windows of the published
  // region, nothing released until the explicit commit.
  std::span<int> a = ring.peek_at(0, 4);
  ASSERT_EQ(a.size(), 4u);
  EXPECT_EQ(a[0], 0);
  std::span<int> b = ring.peek_at(4, 4);
  ASSERT_EQ(b.size(), 2u);  // only 2 published past the offset
  EXPECT_EQ(b[0], 4);
  EXPECT_EQ(b[1], 5);
  EXPECT_TRUE(ring.peek_at(6, 4).empty());
  EXPECT_EQ(ring.size_approx(), 6u);  // everything still held
  ring.commit_pop(6);
  EXPECT_EQ(ring.size_approx(), 0u);
  // peek_at clips at the slab seam like every other borrow API.
  ASSERT_EQ(push_some(ring, {10, 11, 12, 13, 14, 15, 16, 17}), 8u);
  std::span<int> c = ring.peek_at(0, 8);
  ASSERT_EQ(c.size(), 2u);  // head at slab slot 6: clipped at the seam
  EXPECT_EQ(c[0], 10);
  std::span<int> d = ring.peek_at(2, 8);
  ASSERT_EQ(d.size(), 6u);  // continues from slab slot 0
  EXPECT_EQ(d[0], 12);
  EXPECT_EQ(d[5], 17);
}

TEST(SpscRingTest, CorruptAdvanceTailPublishesStaleSlots) {
  SpscRing<int> ring(8);
  ASSERT_EQ(push_some(ring, {0, 1, 2, 3}), 4u);
  ASSERT_EQ(pop_some(ring, 4).size(), 4u);
  // Fault injection: publish 3 slots the producer never wrote — the
  // consumer observes whatever the slab holds there.
  EXPECT_EQ(ring.corrupt_advance_tail(3), 3u);
  EXPECT_EQ(ring.size_approx(), 3u);
  std::span<int> view = ring.peek(8);
  ASSERT_EQ(view.size(), 3u);  // stale slab slots 4..6
  ring.commit_pop(3);
  EXPECT_EQ(ring.size_approx(), 0u);
  // Clamped at the available room.
  ASSERT_EQ(push_some(ring, {0, 1, 2, 3, 4, 5}), 6u);
  EXPECT_EQ(ring.corrupt_advance_tail(99), 2u);
  EXPECT_EQ(ring.size_approx(), 8u);
}

// Two-thread stress: the producer publishes a strictly increasing
// sequence in ragged borrows (every fourth one only partly committed)
// while the consumer alternates the dataplane's two consumption styles
// in ragged sizes: peek + immediate commit_pop (unsupervised worker)
// and peek_at reading ahead of a deferred commit (supervised worker).
// The consumer must observe every value exactly once, in order. Run
// under the tsan preset this also certifies the acquire/release
// protocol of the borrow API.
TEST(SpscRingStress, TwoThreadsOrderedLossless) {
  SpscRing<std::uint64_t> ring(256);
  constexpr std::uint64_t kCount = 200'000;
  std::thread producer([&ring] {
    std::uint64_t next = 0;
    for (std::size_t burst = 1; next < kCount; ++burst) {
      const std::size_t want =
          static_cast<std::size_t>(std::min<std::uint64_t>(
              burst % 17 + 1, kCount - next));
      const std::span<std::uint64_t> slots = ring.prepare_push(want);
      if (slots.empty()) {
        std::this_thread::yield();
        continue;
      }
      const std::size_t n = (burst % 4 == 0 && slots.size() > 1)
                                ? slots.size() - 1
                                : slots.size();
      for (std::size_t i = 0; i < n; ++i) slots[i] = next++;
      ring.commit_push(n);
    }
  });
  std::uint64_t expect = 0;
  std::size_t uncommitted = 0;
  for (std::size_t spin = 0; expect < kCount; ++spin) {
    const bool deferred = (spin / 64) % 2 == 1;
    if (!deferred && uncommitted > 0) {
      ring.commit_pop(uncommitted);
      uncommitted = 0;
    }
    const std::size_t max = spin % 13 + 1;
    const std::span<std::uint64_t> view =
        deferred ? ring.peek_at(uncommitted, max) : ring.peek(max);
    for (const std::uint64_t v : view) ASSERT_EQ(v, expect++);
    if (!deferred) {
      ring.commit_pop(view.size());
    } else {
      uncommitted += view.size();
      // Checkpoint: commit every 8th read, or when the read-ahead
      // stalls (the producer may be waiting for room).
      if (view.empty() || spin % 8 == 0) {
        ring.commit_pop(uncommitted);
        uncommitted = 0;
      }
    }
    if (view.empty()) std::this_thread::yield();
  }
  ring.commit_pop(uncommitted);
  producer.join();
  EXPECT_EQ(ring.size_approx(), 0u);
  EXPECT_EQ(expect, kCount);
}

}  // namespace
}  // namespace qv::dataplane
