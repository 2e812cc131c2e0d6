// Online rank-distribution estimation (paper §2 Idea 2 "react upon
// [traffic shifts] ... based on the latest packets received", and §5
// "computing transformation functions at line rate, based on the
// distribution of the latest packets").
//
// A sliding window of recent ranks per tenant yields empirical bounds
// and quantiles that the runtime controller feeds back into the
// synthesizer to tighten bands, and that the monitor compares against
// the tenant's declared bounds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "control/rank_digest.hpp"
#include "netsim/packet.hpp"
#include "sched/rank/ranker.hpp"
#include "util/time.hpp"

namespace qv::qvisor {

class RankDistEstimator {
 public:
  explicit RankDistEstimator(std::size_t window = 1024);

  /// Sketch-backed estimator (million-tenant control plane): ranks feed
  /// a fixed-byte mergeable RankDigest instead of the exact 1024-entry
  /// ring; bounds() and quantile() answer from the digest within its
  /// error bound. A small time ring (`time_window` entries) remains for
  /// rate_pps() — arrival TIMES have no sketch, and the controller only
  /// needs a recent-rate estimate. `decay_every` observations between
  /// digest decay() calls keeps the distribution sliding (0 = never).
  static RankDistEstimator sketched(control::RankDigestConfig config,
                                    std::size_t time_window = 128,
                                    std::uint32_t decay_every = 4096);

  bool sketch_mode() const { return digest_.has_value(); }

  /// Bytes held by this estimator's structures — constant per mode.
  std::size_t byte_size() const;

  void observe(Rank r, TimeNs now);

  std::size_t samples() const {
    return digest_ ? static_cast<std::size_t>(digest_->count()) : count_;
  }
  bool empty() const { return samples() == 0; }

  /// Empirical bounds over the current window. Meaningless when empty.
  sched::RankBounds bounds() const;

  /// Empirical quantile (0 <= q <= 1) over the window: the order
  /// statistic at quantile_index(q, samples()), found by selection.
  Rank quantile(double q) const;

  /// The exact window's ranks in ascending order, for callers that read
  /// many quantiles (index it with quantile_index). Exact mode only.
  std::vector<Rank> sorted_window() const;

  /// Position of quantile q in a sorted window of n >= 1 ranks.
  static std::size_t quantile_index(double q, std::size_t n) {
    return static_cast<std::size_t>(q * static_cast<double>(n - 1));
  }

  /// Arrival rate over the window, packets/second. 0 until the window
  /// spans a positive time interval.
  double rate_pps(TimeNs now) const;

  TimeNs last_observation() const { return last_seen_; }

  void reset();

 private:
  struct Entry {
    Rank rank;
    TimeNs at;
  };

  /// The ranks of the filled ring slots, in slot order.
  std::vector<Rank> window_ranks() const;

  std::vector<Entry> ring_;
  std::size_t head_ = 0;   ///< next slot to overwrite
  std::size_t count_ = 0;  ///< filled slots (<= ring_.size())
  TimeNs last_seen_ = 0;
  /// Sketch mode (set by sketched()): the distribution lives here and
  /// ring_ only carries arrival times for rate_pps().
  std::optional<control::RankDigest> digest_;
  std::uint32_t decay_every_ = 0;
  std::uint32_t since_decay_ = 0;
};

}  // namespace qv::qvisor
