#include "mobility/mobility.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <string>

#include "common/error.hpp"

namespace agentnet {

namespace {
Vec2 random_heading(Rng& rng) {
  const double theta = rng.uniform_real(0.0, 2.0 * std::numbers::pi);
  return {std::cos(theta), std::sin(theta)};
}

// The mobile nodes, ascending: step() walks only these, in the order the
// per-node RNG draws have always been taken.
std::vector<std::uint32_t> movers_of(const std::vector<bool>& mobile) {
  std::vector<std::uint32_t> movers;
  for (std::size_t i = 0; i < mobile.size(); ++i)
    if (mobile[i]) movers.push_back(static_cast<std::uint32_t>(i));
  return movers;
}

// Reflects `p` into `bounds`, flipping the matching heading component.
// Handles a single overshoot per axis, which per-step speeds guarantee.
void bounce(Aabb bounds, Vec2& p, Vec2& heading) {
  if (p.x < bounds.lo.x) {
    p.x = 2.0 * bounds.lo.x - p.x;
    heading.x = -heading.x;
  } else if (p.x > bounds.hi.x) {
    p.x = 2.0 * bounds.hi.x - p.x;
    heading.x = -heading.x;
  }
  if (p.y < bounds.lo.y) {
    p.y = 2.0 * bounds.lo.y - p.y;
    heading.y = -heading.y;
  } else if (p.y > bounds.hi.y) {
    p.y = 2.0 * bounds.hi.y - p.y;
    heading.y = -heading.y;
  }
  p = bounds.clamp(p);  // in case the reflection itself overshot
}
}  // namespace

RandomDirectionMobility::RandomDirectionMobility(Aabb bounds,
                                                 std::vector<bool> mobile,
                                                 Params params, Rng rng)
    : bounds_(bounds),
      mobile_(std::move(mobile)),
      movers_(movers_of(mobile_)),
      params_(params),
      rng_(rng) {
  AGENTNET_REQUIRE(params.min_speed >= 0.0 &&
                       params.max_speed >= params.min_speed,
                   "need 0 <= min_speed <= max_speed");
  AGENTNET_REQUIRE(
      params.turn_probability >= 0.0 && params.turn_probability <= 1.0,
      "turn probability must be in [0,1]");
  speeds_.resize(mobile_.size(), 0.0);
  headings_.resize(mobile_.size());
  for (const std::uint32_t i : movers_) {
    speeds_[i] = rng_.uniform_real(params_.min_speed, params_.max_speed);
    headings_[i] = random_heading(rng_);
  }
}

void RandomDirectionMobility::step(std::vector<Vec2>& positions) {
  AGENTNET_REQUIRE(positions.size() == mobile_.size(),
                   "position count does not match mobility mask");
  for (const std::uint32_t i : movers_) {
    if (rng_.bernoulli(params_.turn_probability))
      headings_[i] = random_heading(rng_);
    Vec2 p = positions[i] + headings_[i] * speeds_[i];
    bounce(bounds_, p, headings_[i]);
    positions[i] = p;
  }
}

bool RandomDirectionMobility::is_stationary(std::size_t node) const {
  AGENTNET_ASSERT(node < mobile_.size());
  return !mobile_[node];
}

double RandomDirectionMobility::speed(std::size_t node) const {
  AGENTNET_ASSERT(node < speeds_.size());
  return speeds_[node];
}

TraceMobility TraceMobility::record(MobilityModel& model,
                                    std::vector<Vec2> initial,
                                    std::size_t steps) {
  const std::size_t n = initial.size();
  AGENTNET_REQUIRE(n <= std::numeric_limits<std::uint32_t>::max(),
                   "trace node count exceeds the u32 node index");
  auto rec = std::make_shared<Recording>();
  rec->stationary.resize(n);
  std::vector<std::uint32_t> pinned;
  for (std::size_t i = 0; i < n; ++i) {
    rec->stationary[i] = model.is_stationary(i);
    (rec->stationary[i] ? pinned : rec->movers)
        .push_back(static_cast<std::uint32_t>(i));
  }
  rec->initial = initial;
  std::vector<Vec2> positions = std::move(initial);
  // No reserve: `steps` may come from an unchecked file header, and the
  // row headers are small enough to grow by doubling.
  for (std::size_t t = 0; t < steps; ++t) {
    model.step(positions);
    for (const std::uint32_t i : pinned)
      AGENTNET_REQUIRE(positions[i] == rec->initial[i],
                       "mobility model moved node " + std::to_string(i) +
                           ", which it reports as stationary, at step " +
                           std::to_string(t + 1));
    std::vector<Vec2>& row = rec->frames.emplace_back(rec->movers.size());
    for (std::size_t k = 0; k < rec->movers.size(); ++k)
      row[k] = positions[rec->movers[k]];
  }
  TraceMobility trace;
  trace.recording_ = std::move(rec);
  return trace;
}

const TraceMobility::Recording& TraceMobility::recording() const {
  static const Recording kEmpty;
  return recording_ ? *recording_ : kEmpty;
}

void TraceMobility::step(std::vector<Vec2>& positions) {
  const Recording& rec = recording();
  AGENTNET_REQUIRE(positions.size() == rec.initial.size(),
                   "position count does not match recorded trace");
  if (rec.frames.empty()) return;
  const std::vector<Vec2>& row =
      rec.frames[std::min(cursor_, rec.frames.size() - 1)];
  for (std::size_t k = 0; k < rec.movers.size(); ++k)
    positions[rec.movers[k]] = row[k];
  if (cursor_ < rec.frames.size()) ++cursor_;
}

bool TraceMobility::is_stationary(std::size_t node) const {
  AGENTNET_ASSERT(node < node_count());
  return recording().stationary[node];
}

std::vector<Vec2> TraceMobility::frame(std::size_t i) const {
  const Recording& rec = recording();
  AGENTNET_ASSERT(i < rec.frames.size());
  std::vector<Vec2> out = rec.initial;
  for (std::size_t k = 0; k < rec.movers.size(); ++k)
    out[rec.movers[k]] = rec.frames[i][k];
  return out;
}

std::span<const Vec2> TraceMobility::mover_frame(std::size_t i) const {
  AGENTNET_ASSERT(i < frames());
  return recording().frames[i];
}

std::vector<Vec2> random_positions(std::size_t node_count, Aabb bounds,
                                   Rng& rng) {
  std::vector<Vec2> out(node_count);
  for (auto& p : out)
    p = {rng.uniform_real(bounds.lo.x, bounds.hi.x),
         rng.uniform_real(bounds.lo.y, bounds.hi.y)};
  return out;
}

}  // namespace agentnet
