#include "qvisor/rank_distribution.hpp"

#include <algorithm>
#include <cassert>

namespace qv::qvisor {

RankDistEstimator::RankDistEstimator(std::size_t window) : ring_(window) {
  assert(window > 0);
}

RankDistEstimator RankDistEstimator::sketched(control::RankDigestConfig config,
                                              std::size_t time_window,
                                              std::uint32_t decay_every) {
  RankDistEstimator est(std::max<std::size_t>(1, time_window));
  est.digest_.emplace(config);
  est.decay_every_ = decay_every;
  return est;
}

std::size_t RankDistEstimator::byte_size() const {
  return sizeof(*this) + ring_.size() * sizeof(Entry) +
         (digest_ ? digest_->byte_size() : 0);
}

void RankDistEstimator::observe(Rank r, TimeNs now) {
  ring_[head_] = Entry{r, now};
  head_ = (head_ + 1) % ring_.size();
  count_ = std::min(count_ + 1, ring_.size());
  last_seen_ = now;
  if (digest_) {
    digest_->observe(r);
    if (decay_every_ != 0 && ++since_decay_ >= decay_every_) {
      digest_->decay();
      since_decay_ = 0;
    }
  }
}

sched::RankBounds RankDistEstimator::bounds() const {
  if (digest_) {
    if (digest_->empty()) return {0, 0};
    return {digest_->min(), digest_->max()};
  }
  sched::RankBounds b{kMaxRank, 0};
  for (std::size_t i = 0; i < count_; ++i) {
    b.min = std::min(b.min, ring_[i].rank);
    b.max = std::max(b.max, ring_[i].rank);
  }
  if (count_ == 0) return {0, 0};
  return b;
}

std::vector<Rank> RankDistEstimator::window_ranks() const {
  std::vector<Rank> ranks(count_);
  for (std::size_t i = 0; i < count_; ++i) ranks[i] = ring_[i].rank;
  return ranks;
}

Rank RankDistEstimator::quantile(double q) const {
  if (digest_) return digest_->quantile(q);
  if (count_ == 0) return 0;
  assert(q >= 0.0 && q <= 1.0);
  // nth_element places the same order statistic a full sort would put
  // at this index, in linear rather than n log n time.
  std::vector<Rank> ranks = window_ranks();
  const auto nth = ranks.begin() + static_cast<std::ptrdiff_t>(
                                       quantile_index(q, ranks.size()));
  std::nth_element(ranks.begin(), nth, ranks.end());
  return *nth;
}

std::vector<Rank> RankDistEstimator::sorted_window() const {
  assert(!digest_);
  std::vector<Rank> ranks = window_ranks();
  std::sort(ranks.begin(), ranks.end());
  return ranks;
}

double RankDistEstimator::rate_pps(TimeNs now) const {
  if (count_ == 0) return 0.0;
  TimeNs oldest = kTimeMax;
  for (std::size_t i = 0; i < count_; ++i) {
    oldest = std::min(oldest, ring_[i].at);
  }
  const TimeNs span = now - oldest;
  if (span <= 0) return 0.0;
  return static_cast<double>(count_) / to_seconds(span);
}

void RankDistEstimator::reset() {
  head_ = 0;
  count_ = 0;
  last_seen_ = 0;
  if (digest_) {
    digest_->reset();
    since_decay_ = 0;
  }
}

}  // namespace qv::qvisor
