// Battery model. The paper's dynamic-routing network assumes mobile nodes
// "run on battery power ... their radio range decrease[s] as time goes by";
// the mapping network assumes "degradation on a percentage of radio links
// due to rely[ing] on battery power". Both are driven by this model plus
// the range scaling in radio/range_model.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "snapshot/bytes.hpp"

namespace agentnet {

/// Parameters for one battery. A mains-powered node uses drain_per_step=0.
struct BatteryParams {
  double capacity = 1.0;        ///< Initial charge (arbitrary units, > 0).
  double drain_per_step = 0.0;  ///< Charge consumed per simulation step.
};

/// One node's battery; charge never drops below zero.
class Battery {
 public:
  Battery() = default;
  explicit Battery(BatteryParams params);

  /// Advances one simulation step.
  void step();

  double charge() const { return charge_; }
  /// Remaining fraction of the initial capacity, in [0, 1].
  double fraction() const { return charge_ / params_.capacity; }
  bool depleted() const { return charge_ <= 0.0; }
  const BatteryParams& params() const { return params_; }

  /// Checkpoint support: only the charge — params are config-derived and
  /// already in place when a checkpoint is restored. A charge that is not
  /// a finite value in [0, capacity] (-0.0 included) is rejected.
  void save_state(snapshot::ByteWriter& w) const { w.f64(charge_); }
  void load_state(snapshot::ByteReader& r);

 private:
  BatteryParams params_{};
  double charge_ = 1.0;
};

/// Batteries for a whole network: a boolean mask selects which nodes are
/// battery-powered (drain > 0); the rest are mains-powered and never decay,
/// so step() touches only the battery-powered nodes.
class BatteryBank {
 public:
  BatteryBank(std::size_t node_count, const std::vector<bool>& on_battery,
              BatteryParams battery_params);

  void step();

  std::size_t size() const { return batteries_.size(); }
  bool on_battery(std::size_t node) const;
  /// Remaining fraction for `node`; mains-powered nodes report 1.0 forever.
  double fraction(std::size_t node) const;
  const Battery& battery(std::size_t node) const;
  /// Nodes whose fraction() is above zero: every mains-powered node plus
  /// the live battery-powered ones. O(battery-powered nodes).
  std::size_t alive_count() const;

  /// Checkpoint support: per-node charges and the step counter. The
  /// on-battery mask is config-derived and not carried. state_bytes() is
  /// what save_state writes.
  std::size_t state_bytes() const { return 8 + 8 * batteries_.size() + 8; }
  void save_state(snapshot::ByteWriter& w) const {
    w.size(batteries_.size());
    for (const Battery& b : batteries_) b.save_state(w);
    w.size(tick_);
  }
  void load_state(snapshot::ByteReader& r) {
    r.exact_count(batteries_.size(), "battery charges");
    for (Battery& b : batteries_) b.load_state(r);
    tick_ = r.size();
  }

 private:
  std::vector<Battery> batteries_;
  std::vector<bool> on_battery_;
  std::vector<std::uint32_t> battery_nodes_;  // on-battery ids, ascending
  std::size_t tick_ = 0;  ///< Steps advanced; timestamps depletion events.
};

}  // namespace agentnet
