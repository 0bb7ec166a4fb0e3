#include "energy/battery.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "obs/obs.hpp"

namespace agentnet {

Battery::Battery(BatteryParams params) : params_(params) {
  AGENTNET_REQUIRE(params.capacity > 0.0, "battery capacity must be > 0");
  AGENTNET_REQUIRE(params.drain_per_step >= 0.0,
                   "battery drain must be >= 0");
  charge_ = params.capacity;
}

void Battery::step() {
  charge_ = std::max(0.0, charge_ - params_.drain_per_step);
}

// Every charge step() can produce is finite, non-negative and at most the
// capacity; holding restored charges to the same range makes stepping a
// mains battery (drain 0) an exact no-op, which BatteryBank relies on.
void Battery::load_state(snapshot::ByteReader& r) {
  const std::size_t at = r.position();
  const double charge = r.f64();
  AGENTNET_REQUIRE(std::isfinite(charge) && !std::signbit(charge) &&
                       charge <= params_.capacity,
                   "snapshot: battery charge " + std::to_string(charge) +
                       " outside [0, capacity] at byte " + std::to_string(at));
  charge_ = charge;
}

BatteryBank::BatteryBank(std::size_t node_count,
                         const std::vector<bool>& on_battery,
                         BatteryParams battery_params)
    : on_battery_(on_battery) {
  AGENTNET_REQUIRE(on_battery.size() == node_count,
                   "battery mask size must equal node count");
  batteries_.reserve(node_count);
  for (std::size_t i = 0; i < node_count; ++i) {
    BatteryParams p = battery_params;
    if (on_battery_[i])
      battery_nodes_.push_back(static_cast<std::uint32_t>(i));
    else
      p.drain_per_step = 0.0;
    batteries_.emplace_back(p);
  }
}

void BatteryBank::step() {
  ++tick_;
  // Ascending ids, so depletion events keep their node order.
  for (const std::uint32_t i : battery_nodes_) {
    Battery& b = batteries_[i];
    const bool was_alive = !b.depleted();
    b.step();
    if (was_alive && b.depleted()) {
      AGENTNET_COUNT(kBatteryDeaths);
      AGENTNET_OBS_EVENT(kBatteryDeath, tick_, -1,
                         static_cast<std::int64_t>(i));
    }
  }
}

bool BatteryBank::on_battery(std::size_t node) const {
  AGENTNET_ASSERT(node < on_battery_.size());
  return on_battery_[node];
}

double BatteryBank::fraction(std::size_t node) const {
  AGENTNET_ASSERT(node < batteries_.size());
  return on_battery_[node] ? batteries_[node].fraction() : 1.0;
}

const Battery& BatteryBank::battery(std::size_t node) const {
  AGENTNET_ASSERT(node < batteries_.size());
  return batteries_[node];
}

std::size_t BatteryBank::alive_count() const {
  std::size_t alive = batteries_.size() - battery_nodes_.size();
  for (const std::uint32_t i : battery_nodes_)
    if (batteries_[i].fraction() > 0.0) ++alive;
  return alive;
}

}  // namespace agentnet
