#include "radio/range_model.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace agentnet {

std::vector<double> heterogeneous_ranges(std::size_t node_count,
                                         double min_range, double max_range,
                                         Rng& rng) {
  AGENTNET_REQUIRE(min_range > 0.0 && max_range >= min_range,
                   "need 0 < min_range <= max_range");
  std::vector<double> out(node_count);
  for (auto& r : out) r = rng.uniform_real(min_range, max_range);
  return out;
}

RadioModel::RadioModel(std::vector<double> base_ranges, RangeScaling scaling)
    : base_ranges_(std::move(base_ranges)), scaling_(scaling) {
  AGENTNET_REQUIRE(!base_ranges_.empty(), "radio model needs >= 1 node");
  AGENTNET_REQUIRE(scaling.min_scale > 0.0 && scaling.min_scale <= 1.0,
                   "range scaling floor must be in (0, 1]");
  for (double r : base_ranges_) {
    AGENTNET_REQUIRE(r > 0.0, "base ranges must be > 0");
    max_base_range_ = std::max(max_base_range_, r);
  }
}

double RadioModel::base_range(std::size_t node) const {
  AGENTNET_ASSERT(node < base_ranges_.size());
  return base_ranges_[node];
}

double RadioModel::effective_range(std::size_t node,
                                   double battery_fraction) const {
  return scaling_.apply(base_range(node), battery_fraction);
}

}  // namespace agentnet
