#include "qvisor/quantile_transform.hpp"

#include <vector>

namespace qv::qvisor {

BreakpointTransform quantile_transform_from_estimator(
    const RankDistEstimator& estimator, std::uint32_t levels, Rank base) {
  // n evenly spaced order statistics of the window. The exact window is
  // sorted once and indexed as quantile(q) indexes it; a plain copy of
  // it would differ, because q * (n - 1) truncates below i for some
  // slots (five at n = 1000). A sketch answers each q itself.
  const std::size_t n = estimator.samples();
  const bool sketch = estimator.sketch_mode();
  const std::vector<Rank> sorted =
      sketch ? std::vector<Rank>{} : estimator.sorted_window();
  std::vector<Rank> samples;
  samples.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double q =
        n == 1 ? 0.0 : static_cast<double>(i) / static_cast<double>(n - 1);
    samples.push_back(sketch ? estimator.quantile(q)
                             : sorted[RankDistEstimator::quantile_index(q, n)]);
  }
  return BreakpointTransform::from_samples(std::move(samples), levels,
                                           base);
}

SynthesisPlan refine_with_quantiles(
    const SynthesisPlan& plan,
    const std::unordered_map<TenantId, const RankDistEstimator*>& estimators,
    std::size_t min_samples, std::size_t* refined_count) {
  SynthesisPlan refined = plan;
  std::size_t count = 0;
  for (auto& tp : refined.tenants) {
    const auto it = estimators.find(tp.tenant);
    if (it == estimators.end() || it->second == nullptr) continue;
    const RankDistEstimator& est = *it->second;
    if (est.samples() < min_samples) continue;
    tp.quantile = quantile_transform_from_estimator(
        est, tp.transform.levels(), tp.transform.base());
    ++count;
  }
  if (refined_count != nullptr) *refined_count = count;
  if (count > 0) {
    refined.notes.push_back(
        "quantile refinement applied to " + std::to_string(count) +
        " tenant(s) from live rank distributions");
  }
  return refined;
}

}  // namespace qv::qvisor
