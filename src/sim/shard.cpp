#include "sim/shard.hpp"

#include <cmath>

#include "common/error.hpp"

namespace agentnet {

WorldShards::WorldShards(Aabb bounds, double tile_size,
                         std::span<const NodeId> maybe_dirty,
                         const std::vector<Vec2>& built_positions,
                         const std::vector<double>& built_ranges,
                         const BatteryBank& batteries)
    : bounds_(bounds), tile_size_(tile_size) {
  AGENTNET_REQUIRE(std::isfinite(tile_size) && tile_size > 0.0,
                   "shard tile size must be finite and > 0");
  AGENTNET_REQUIRE(bounds.width() > 0.0 && bounds.height() > 0.0,
                   "shard bounds must have positive area");
  const auto tiles_for = [](double extent, double ts) {
    const double c = std::ceil(extent / ts);
    return c < 1.0 ? 1.0 : c;
  };
  while (tiles_for(bounds.width(), tile_size_) *
             tiles_for(bounds.height(), tile_size_) >
         static_cast<double>(kMaxTiles))
    tile_size_ *= 2.0;
  cols_ = static_cast<int>(tiles_for(bounds.width(), tile_size_));
  rows_ = static_cast<int>(tiles_for(bounds.height(), tile_size_));
  tiles_.resize(static_cast<std::size_t>(cols_) * rows_);

  const std::size_t n = built_positions.size();
  AGENTNET_REQUIRE(built_ranges.size() == n,
                   "shard built positions/ranges size mismatch");
  dirty_words_.assign((n + 63) / 64, 0);
  tile_of_.assign(n, kInvalidNode);
  slot_of_.assign(n, kInvalidNode);
  for (NodeId m : maybe_dirty) {
    AGENTNET_REQUIRE(m < n, "shard member id out of range");
    insert_member(tile_of_pos(built_positions[m]), m, built_positions[m],
                  built_ranges[m], batteries.on_battery(m));
  }
}

std::size_t WorldShards::tile_of_pos(Vec2 p) const {
  const Vec2 q = bounds_.clamp(p);
  const int cx = std::min(
      cols_ - 1, static_cast<int>((q.x - bounds_.lo.x) / tile_size_));
  const int cy = std::min(
      rows_ - 1, static_cast<int>((q.y - bounds_.lo.y) / tile_size_));
  return static_cast<std::size_t>(cy) * cols_ + cx;
}

void WorldShards::insert_member(std::size_t tile, NodeId m, Vec2 pos,
                                double range, bool battery) {
  Tile& t = tiles_[tile];
  tile_of_[m] = static_cast<std::uint32_t>(tile);
  slot_of_[m] = static_cast<std::uint32_t>(t.members.size());
  t.members.push_back(m);
  t.built_x.push_back(pos.x);
  t.built_y.push_back(pos.y);
  t.built_range.push_back(range);
  t.on_battery.push_back(battery ? 1 : 0);
}

void WorldShards::remove_member(NodeId m) {
  Tile& t = tiles_[tile_of_[m]];
  const std::uint32_t s = slot_of_[m];
  const std::uint32_t last = static_cast<std::uint32_t>(t.members.size() - 1);
  if (s != last) {
    t.members[s] = t.members[last];
    t.built_x[s] = t.built_x[last];
    t.built_y[s] = t.built_y[last];
    t.built_range[s] = t.built_range[last];
    t.on_battery[s] = t.on_battery[last];
    slot_of_[t.members[s]] = s;
  }
  t.members.pop_back();
  t.built_x.pop_back();
  t.built_y.pop_back();
  t.built_range.pop_back();
  t.on_battery.pop_back();
  tile_of_[m] = kInvalidNode;
  slot_of_[m] = kInvalidNode;
}

void WorldShards::migrate(NodeId m, Vec2 pos) {
  const Tile& from = tiles_[tile_of_[m]];
  const std::uint32_t s = slot_of_[m];
  const double range = from.built_range[s];
  const bool battery = from.on_battery[s] != 0;
  remove_member(m);
  insert_member(tile_of_pos(pos), m, pos, range, battery);
}

std::size_t WorldShards::heap_bytes() const {
  std::size_t bytes = tiles_.capacity() * sizeof(Tile) +
                      tile_of_.capacity() * sizeof(std::uint32_t) +
                      slot_of_.capacity() * sizeof(std::uint32_t) +
                      dirty_words_.capacity() * sizeof(std::uint64_t) +
                      dirty_ids_.capacity() * sizeof(NodeId);
  for (const Tile& t : tiles_) {
    bytes += t.members.capacity() * sizeof(NodeId) +
             t.built_x.capacity() * sizeof(double) +
             t.built_y.capacity() * sizeof(double) +
             t.built_range.capacity() * sizeof(double) +
             t.on_battery.capacity() +
             t.dirty.capacity() * sizeof(NodeId) +
             t.leaving.capacity() * sizeof(NodeId);
  }
  return bytes;
}

}  // namespace agentnet
