// Uniform spatial hash grid over the arena; turns the O(n^2) "who is within
// radio range" scan into a neighbourhood query of nearby cells. The topology
// builder rebuilds it wholesale for full builds and relocates single points
// with move() for incremental updates; both paths reuse internal buffers, so
// a warm grid allocates nothing.
//
// Points live in per-cell buckets. Bucket order is not specified — callers
// that need deterministic output sort the accepted candidates (query() does,
// and the topology builder sorts each node's neighbour list), so every
// consumer sees identical results whether the grid was rebuilt or patched.
#pragma once

#include <cstdint>
#include <vector>

#include "geom/vec2.hpp"

namespace agentnet {

class SpatialGrid {
 public:
  /// Hard cap on cols*rows. Million-node arenas can otherwise request
  /// astronomically many cells (huge bounds ÷ small cell size — enough to
  /// overflow an int or exhaust memory before a single point is inserted);
  /// construction coarsens the cell size until the grid fits. A coarser
  /// cell only widens neighbourhood scans, it never changes query results.
  static constexpr std::size_t kMaxCells = std::size_t{1} << 21;

  /// `cell_size` should be >= the largest query radius for single-ring
  /// lookups; larger radii still work (more cells are visited). The stored
  /// cell size may be coarsened to respect kMaxCells — read it back via
  /// cell_size().
  SpatialGrid(Aabb bounds, double cell_size);

  /// Replaces the contents with `positions`; index i keeps identity i.
  /// Reuses internal storage — allocation-free once capacity is warm.
  void rebuild(const std::vector<Vec2>& positions);

  /// Relocates point `i` to `p`. Returns true when the point changed grid
  /// cell (bucket relocation happened); a move within the same cell — or a
  /// no-op move — only updates the stored position and returns false.
  bool move(std::size_t i, Vec2 p);

  std::size_t size() const { return positions_.size(); }
  /// The position point `i` was last rebuilt or moved to.
  Vec2 position(std::size_t i) const { return positions_[i]; }
  Aabb bounds() const { return bounds_; }
  double cell_size() const { return cell_size_; }

  /// Calls `fn(j)` for every point j (including i itself if present) with
  /// distance(point, positions[j]) <= radius. The callback is a template
  /// parameter so the per-candidate call inlines (no std::function
  /// indirection on the topology-rebuild hot path). Visit order within a
  /// cell is unspecified; callers sort when order matters.
  template <class Fn>
  void for_each_within(Vec2 point, double radius, Fn&& fn) const {
    if (positions_.empty() || radius < 0.0) return;
    int cx0, cy0, cx1, cy1;
    cell_coords({point.x - radius, point.y - radius}, cx0, cy0);
    cell_coords({point.x + radius, point.y + radius}, cx1, cy1);
    const double r2 = radius * radius;
    for (int cy = cy0; cy <= cy1; ++cy) {
      for (int cx = cx0; cx <= cx1; ++cx) {
        for (std::uint32_t j : cells_[cell_index(cx, cy)]) {
          if (distance2(point, positions_[j]) <= r2) fn(std::size_t{j});
        }
      }
    }
  }

  /// Indices within radius of `point`, ascending, into caller storage
  /// (`out` is cleared first) — allocation-free once `out` is warm.
  void query(Vec2 point, double radius, std::vector<std::size_t>& out) const;

  /// Heap footprint: positions, bucket headers and bucket capacity
  /// (bytes/node accounting; O(cells) walk, bench/report use only).
  std::size_t heap_bytes() const;

 private:
  std::size_t cell_index(int cx, int cy) const {
    return static_cast<std::size_t>(cy) * cols_ + cx;
  }
  void cell_coords(Vec2 p, int& cx, int& cy) const;

  Aabb bounds_;
  double cell_size_;
  int cols_ = 0;
  int rows_ = 0;
  std::vector<Vec2> positions_;
  // Per-cell buckets (point indices); cells_[home_[i]] contains i. Bucket
  // membership is maintained by rebuild() and move().
  std::vector<std::vector<std::uint32_t>> cells_;
  std::vector<std::uint32_t> home_;  ///< Each point's current cell.
};

}  // namespace agentnet
