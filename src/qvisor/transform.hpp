// Rank transformation functions — the output of the synthesizer and the
// unit of work of the pre-processor (paper §3.2).
//
// QVISOR supports two primitive transformations:
//   * rank-shift: add a band base, prioritizing whole tenants;
//   * rank-normalization: bound a tenant's rank range and quantize it
//     onto discrete levels so different tenants compare fairly.
//
// Both compose into one affine-quantized map:
//
//   level(r) = clamp(r, in_min, in_max) scaled onto [0, levels)
//   apply(r) = base + level(r) * stride
//
// `stride` lets sharing tenants interleave with a per-tenant offset
// (paper Fig. 3 staggers T2 onto even and T3 onto odd ranks of the
// shared band). The map is monotone, so intra-tenant scheduling order
// is preserved — the property that keeps each tenant's algorithm
// meaningful after virtualization.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netsim/packet.hpp"
#include "sched/rank/ranker.hpp"

namespace qv::qvisor {

class RankTransform {
 public:
  /// Identity transform (no shift, no quantization).
  RankTransform() = default;

  /// `in`: the tenant's declared rank bounds. `levels`: quantization
  /// granularity (>= 1). `base`: band base added after quantization
  /// (the shift). `stride`: distance between adjacent output levels
  /// (>= 1; > 1 leaves space for interleaved sharing tenants).
  RankTransform(sched::RankBounds in, std::uint32_t levels, Rank base,
                std::uint32_t stride = 1);

  /// Hot path: one clamp, one multiply, one shift (the division by the
  /// input width is folded into a precomputed fixed-point reciprocal
  /// whenever the exactness precondition holds — see the constructor).
  Rank apply(Rank r) const {
    if (levels_ == 0) return r;  // identity
    const Rank clamped = r < in_.min ? in_.min : (r > in_.max ? in_.max : r);
    const std::uint64_t n =
        static_cast<std::uint64_t>(clamped - in_.min) * levels_;
    std::uint64_t level;
#if defined(__SIZEOF_INT128__)
    if (recip_ != 0) {
      // floor(n / width) == (n * recip) >> 64, exact under the
      // constructor's width^2 * levels <= 2^64 guard.
      level = static_cast<std::uint64_t>(
          (static_cast<unsigned __int128>(n) * recip_) >> 64);
    } else
#endif
    {
      level = n / width_;
      if (level >= levels_) level = levels_ - 1;
    }
    // Saturating output: a base/stride near the numeric edge must not
    // wrap a low-priority band into rank 0 (the highest priority). The
    // 64-bit sum cannot itself overflow (all three factors < 2^32).
    const std::uint64_t out =
        static_cast<std::uint64_t>(base_) + level * stride_;
    return out > kMaxRank ? kMaxRank : static_cast<Rank>(out);
  }

  /// Lowest / highest rank apply() can produce (worst-case analysis);
  /// saturating, matching apply().
  Rank out_min() const { return base_; }
  Rank out_max() const {
    if (levels_ == 0) return kMaxRank;  // identity passes any rank through
    const std::uint64_t out =
        static_cast<std::uint64_t>(base_) +
        static_cast<std::uint64_t>(levels_ - 1) * stride_;
    return out > kMaxRank ? kMaxRank : static_cast<Rank>(out);
  }

  sched::RankBounds input_bounds() const { return in_; }
  std::uint32_t levels() const { return levels_; }
  Rank base() const { return base_; }
  std::uint32_t stride() const { return stride_; }

  std::string to_string() const;

  friend bool operator==(const RankTransform& a, const RankTransform& b) {
    return a.in_.min == b.in_.min && a.in_.max == b.in_.max &&
           a.levels_ == b.levels_ && a.base_ == b.base_ &&
           a.stride_ == b.stride_;
  }

 private:
  sched::RankBounds in_{0, kMaxRank};
  std::uint32_t levels_ = 0;  ///< 0 = identity
  Rank base_ = 0;
  std::uint32_t stride_ = 1;
  /// Derived from in_/levels_ by the constructor (not part of identity).
  std::uint64_t width_ = 1;   ///< in_.max - in_.min + 1
  std::uint64_t recip_ = 0;   ///< ceil(2^64 / width_); 0 = divide instead
};

/// Distribution-aware (quantile) normalization: L-1 sorted thresholds
/// splitting the input rank axis into L equal-probability levels of the
/// tenant's EMPIRICAL rank distribution (paper §5: transformation
/// functions computed from "the distribution of the latest packets").
/// Monotone by construction; realizable as a range/TCAM table.
class BreakpointTransform {
 public:
  BreakpointTransform() = default;

  /// Explicit steps: `thresholds[i]` is the smallest input rank mapped
  /// to level i+1 (level 0 below thresholds[0]); must be sorted
  /// strictly ascending. Output = base + level.
  BreakpointTransform(std::vector<Rank> thresholds, Rank base);

  /// Build from empirical samples (need not be sorted; non-empty):
  /// each distinct observed rank maps to the level of its MIDPOINT CDF
  /// position, floor(cdf_mid * levels). Uniformly-used ranges spread
  /// evenly across the band; a point mass lands mid-band — fair in
  /// expectation against any peer distribution.
  static BreakpointTransform from_samples(std::vector<Rank> samples,
                                          std::uint32_t levels, Rank base);

  Rank apply(Rank r) const;

  Rank out_min() const;
  Rank out_max() const;
  /// Nominal level count of the band this transform targets.
  std::uint32_t levels() const { return levels_; }
  std::size_t steps() const { return from_.size(); }

  friend bool operator==(const BreakpointTransform&,
                         const BreakpointTransform&) = default;

 private:
  // Parallel arrays: ranks >= from_[i] (and < from_[i+1]) map to
  // level_[i]; ranks below from_[0] map to level_[0].
  std::vector<Rank> from_;
  std::vector<Rank> level_;
  Rank base_ = 0;
  std::uint32_t levels_ = 1;
};

/// A match-action-table realization of a RankTransform: the form a
/// programmable data plane would actually install (one exact-match entry
/// per input rank). Only materializable for bounded input ranges.
class TableTransform {
 public:
  /// Build from a closed-form transform; input width must be <=
  /// `max_entries` (hardware table size).
  static TableTransform compile(const RankTransform& t,
                                std::size_t max_entries = 1 << 20);

  Rank apply(Rank r) const;
  std::size_t entries() const { return table_.size(); }
  Rank in_min() const { return in_min_; }

 private:
  Rank in_min_ = 0;
  std::vector<Rank> table_;  ///< table_[r - in_min_] = output rank
};

}  // namespace qv::qvisor
