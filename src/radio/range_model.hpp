// Radio range models.
//
// The paper replaces Minar's idealised symmetric fixed-range radios with a
// realistic model: per-node heterogeneous ranges (so a link A→B can exist
// without B→A, making the topology a *directed* graph) and battery-driven
// range decay. The directed link predicate is:
//
//   edge u→v exists  ⇔  distance(u, v) <= effective_range(u)
//
// where effective_range scales the node's base range by its battery state.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"

namespace agentnet {

/// Per-node range drawn uniformly from [min_range, max_range] — the
/// asymmetry source in the paper's environment.
std::vector<double> heterogeneous_ranges(std::size_t node_count,
                                         double min_range, double max_range,
                                         Rng& rng);

/// Linear battery→range scaling with a floor: at full charge the node
/// radiates its base range, at empty charge `min_scale` of it. min_scale>0
/// keeps depleted nodes reachable at short distances, mirroring the paper's
/// networks which degrade but do not partition into dust.
struct RangeScaling {
  double min_scale = 0.3;

  double apply(double base_range, double battery_fraction) const {
    if (battery_fraction < 0.0) battery_fraction = 0.0;
    if (battery_fraction > 1.0) battery_fraction = 1.0;
    return base_range * (min_scale + (1.0 - min_scale) * battery_fraction);
  }
};

/// Per-node radio state: base range plus the scaling law. Effective range
/// is a pure function of (node, battery fraction), recomputed on demand so
/// the topology builder always sees current values.
class RadioModel {
 public:
  RadioModel(std::vector<double> base_ranges, RangeScaling scaling);

  std::size_t size() const { return base_ranges_.size(); }
  double base_range(std::size_t node) const;
  double effective_range(std::size_t node, double battery_fraction) const;
  /// Largest possible effective range over all nodes (spatial-grid sizing).
  double max_base_range() const { return max_base_range_; }
  const RangeScaling& scaling() const { return scaling_; }

 private:
  std::vector<double> base_ranges_;
  RangeScaling scaling_;
  double max_base_range_ = 0.0;
};

}  // namespace agentnet
