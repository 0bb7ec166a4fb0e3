// Spatially sharded upkeep state for World (docs/PERFORMANCE.md, "Topology
// upkeep").
//
// WorldShards partitions the maybe-dirty node set into square tiles over the
// arena and keeps each tile's built snapshot in SoA layout: built positions
// (split x/y arrays), built quantized ranges and an on-battery flag per
// member slot. The per-step dirty scan then runs tile-local — only tiles
// that hold maybe-dirty members cost anything, mains-powered members skip
// the range recomputation entirely (their effective range is a constant),
// and no tile writes shared state, so the scan fans out over a ThreadPool
// with no synchronisation. Per-tile dirty lists are merged into one
// globally ascending id list — a pure function of the snapshot,
// independent of tiling and threads — so every downstream step
// (TopologyBuilder::update_into, CSR row patching, epoch bumps) consumes
// the same dirty set at any thread count. The tiles only *find* the dirty
// nodes; what is done with them is the same incremental patch whose
// result equals a full rebuild.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/parallel_for.hpp"
#include "energy/battery.hpp"
#include "geom/vec2.hpp"
#include "net/graph.hpp"

namespace agentnet {

class WorldShards {
 public:
  /// Hard cap on the tile count; construction coarsens `tile_size` to fit
  /// (same discipline as SpatialGrid::kMaxCells).
  static constexpr std::size_t kMaxTiles = std::size_t{1} << 20;

  /// Builds the tile partition for `maybe_dirty` members at their built
  /// snapshot. `built_positions` / `built_ranges` are indexed by node id
  /// and must reflect the last topology build.
  WorldShards(Aabb bounds, double tile_size,
              std::span<const NodeId> maybe_dirty,
              const std::vector<Vec2>& built_positions,
              const std::vector<double>& built_ranges,
              const BatteryBank& batteries);

  std::size_t tile_count() const { return tiles_.size(); }
  double tile_size() const { return tile_size_; }

  /// Per-tile dirty scan against `positions`; `range_of(node)` must return
  /// the node's current quantized effective range (only battery-powered
  /// members are asked). A dirty member's new range goes to `ranges[m]`
  /// and its built snapshot takes the scanned values at once; members
  /// whose new position left their tile migrate after the scan. Fills
  /// dirty_ids() — globally ascending, independent of tiling and thread
  /// count — and last_tiles_dirty(). Safe to fan out: each tile writes
  /// only its own slots and its own members' `ranges` entries.
  template <class RangeFn>
  void scan(const std::vector<Vec2>& positions, RangeFn&& range_of,
            std::vector<double>& ranges, ThreadPool* pool) {
    auto scan_tile = [&](std::size_t t) {
      Tile& tile = tiles_[t];
      tile.dirty.clear();
      tile.leaving.clear();
      for (std::size_t s = 0; s < tile.members.size(); ++s) {
        const NodeId m = tile.members[s];
        double r = tile.built_range[s];
        if (tile.on_battery[s]) r = range_of(m);
        const Vec2 p = positions[m];
        if (p.x == tile.built_x[s] && p.y == tile.built_y[s] &&
            r == tile.built_range[s])
          continue;
        tile.dirty.push_back(m);
        ranges[m] = r;
        tile.built_x[s] = p.x;
        tile.built_y[s] = p.y;
        tile.built_range[s] = r;
        if (tile_of_pos(p) != t) tile.leaving.push_back(m);
      }
    };
    if (pool != nullptr && pool->size() > 1) {
      parallel_for(*pool, tiles_.size(), scan_tile);
    } else {
      for (std::size_t t = 0; t < tiles_.size(); ++t) scan_tile(t);
    }
    // Deterministic serial merge: each dirty tile marks its members in a
    // per-node bitmap that is read out in ascending id order, so neither
    // tile order nor thread count reaches the output. Migrations touch
    // only member slots, never the per-tile dirty lists, so they run in
    // the same pass.
    dirty_ids_.clear();
    last_tiles_dirty_ = 0;
    std::size_t lo = dirty_words_.size();
    std::size_t hi = 0;
    for (Tile& tile : tiles_) {
      if (tile.dirty.empty()) continue;
      ++last_tiles_dirty_;
      for (NodeId m : tile.dirty) {
        const std::size_t w = m / 64;
        dirty_words_[w] |= std::uint64_t{1} << (m % 64);
        lo = std::min(lo, w);
        hi = std::max(hi, w + 1);
      }
      for (NodeId m : tile.leaving) migrate(m, positions[m]);
    }
    for (std::size_t w = lo; w < hi; ++w) {
      for (std::uint64_t bits = dirty_words_[w]; bits != 0; bits &= bits - 1)
        dirty_ids_.push_back(
            static_cast<NodeId>(w * 64 + std::countr_zero(bits)));
      dirty_words_[w] = 0;
    }
  }

  /// The last scan's dirty nodes, ascending.
  const std::vector<NodeId>& dirty_ids() const { return dirty_ids_; }
  /// Tiles that contributed ≥1 dirty node in the last scan.
  std::size_t last_tiles_dirty() const { return last_tiles_dirty_; }

  /// Heap footprint (bytes/node accounting; O(tiles) walk).
  std::size_t heap_bytes() const;

 private:
  struct Tile {
    std::vector<NodeId> members;      // node id per slot
    std::vector<double> built_x;      // SoA built position, x
    std::vector<double> built_y;      // SoA built position, y
    std::vector<double> built_range;  // built quantized range
    std::vector<char> on_battery;     // 1 ⇒ range can drift per step
    std::vector<NodeId> dirty;        // scan output
    std::vector<NodeId> leaving;      // dirty members that left the tile
  };

  std::size_t tile_of_pos(Vec2 p) const;
  void insert_member(std::size_t tile, NodeId m, Vec2 pos, double range,
                     bool battery);
  /// Swap-erase `m` from its tile, fixing the displaced member's slot.
  void remove_member(NodeId m);
  /// Moves `m`, with its built snapshot, into the tile holding `pos`.
  void migrate(NodeId m, Vec2 pos);

  Aabb bounds_;
  double tile_size_ = 1.0;
  int cols_ = 1;
  int rows_ = 1;
  std::vector<Tile> tiles_;
  std::vector<std::uint32_t> tile_of_;  // per node; kInvalidNode ⇒ not a member
  std::vector<std::uint32_t> slot_of_;
  std::vector<std::uint64_t> dirty_words_;  // merge bitmap, zero between scans
  std::vector<NodeId> dirty_ids_;
  std::size_t last_tiles_dirty_ = 0;
};

}  // namespace agentnet
