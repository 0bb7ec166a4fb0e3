#include "geom/spatial_grid.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace agentnet {

SpatialGrid::SpatialGrid(Aabb bounds, double cell_size)
    : bounds_(bounds), cell_size_(cell_size) {
  AGENTNET_REQUIRE(std::isfinite(cell_size) && cell_size > 0.0,
                   "spatial grid cell size must be finite and > 0");
  AGENTNET_REQUIRE(
      std::isfinite(bounds.lo.x) && std::isfinite(bounds.lo.y) &&
          std::isfinite(bounds.hi.x) && std::isfinite(bounds.hi.y),
      "spatial grid bounds must be finite");
  AGENTNET_REQUIRE(bounds.width() > 0.0 && bounds.height() > 0.0,
                   "spatial grid bounds must have positive area");
  // Cell counts in double first: a direct ceil()-and-cast overflows int for
  // huge bounds ÷ small cells. Coarsen the cell size (doubling terminates:
  // eventually one cell covers each axis) until the grid fits kMaxCells.
  const auto cells_for = [](double extent, double cs) {
    const double c = std::ceil(extent / cs);
    return c < 1.0 ? 1.0 : c;
  };
  const auto max_cells = static_cast<double>(kMaxCells);
  while (cells_for(bounds.width(), cell_size_) *
             cells_for(bounds.height(), cell_size_) >
         max_cells)
    cell_size_ *= 2.0;
  cols_ = static_cast<int>(cells_for(bounds.width(), cell_size_));
  rows_ = static_cast<int>(cells_for(bounds.height(), cell_size_));
  cells_.resize(static_cast<std::size_t>(cols_) * rows_);
}

void SpatialGrid::cell_coords(Vec2 p, int& cx, int& cy) const {
  const Vec2 q = bounds_.clamp(p);
  cx = std::min(cols_ - 1,
                static_cast<int>((q.x - bounds_.lo.x) / cell_size_));
  cy = std::min(rows_ - 1,
                static_cast<int>((q.y - bounds_.lo.y) / cell_size_));
}

void SpatialGrid::rebuild(const std::vector<Vec2>& positions) {
  positions_.assign(positions.begin(), positions.end());
  for (auto& cell : cells_) cell.clear();  // capacity survives
  home_.resize(positions_.size());
  for (std::size_t i = 0; i < positions_.size(); ++i) {
    int cx, cy;
    cell_coords(positions_[i], cx, cy);
    home_[i] = static_cast<std::uint32_t>(cell_index(cx, cy));
    cells_[home_[i]].push_back(static_cast<std::uint32_t>(i));
  }
}

bool SpatialGrid::move(std::size_t i, Vec2 p) {
  AGENTNET_ASSERT(i < positions_.size());
  positions_[i] = p;
  int cx, cy;
  cell_coords(p, cx, cy);
  const auto cell = static_cast<std::uint32_t>(cell_index(cx, cy));
  if (cell == home_[i]) return false;
  // Swap-erase from the old bucket: bucket order carries no meaning.
  auto& old_bucket = cells_[home_[i]];
  for (std::size_t k = 0; k < old_bucket.size(); ++k) {
    if (old_bucket[k] == static_cast<std::uint32_t>(i)) {
      old_bucket[k] = old_bucket.back();
      old_bucket.pop_back();
      break;
    }
  }
  cells_[cell].push_back(static_cast<std::uint32_t>(i));
  home_[i] = cell;
  return true;
}

void SpatialGrid::query(Vec2 point, double radius,
                        std::vector<std::size_t>& out) const {
  out.clear();
  for_each_within(point, radius, [&](std::size_t j) { out.push_back(j); });
  std::sort(out.begin(), out.end());
}

std::size_t SpatialGrid::heap_bytes() const {
  std::size_t bytes = positions_.capacity() * sizeof(Vec2) +
                      home_.capacity() * sizeof(std::uint32_t) +
                      cells_.capacity() * sizeof(cells_[0]);
  for (const auto& bucket : cells_)
    bytes += bucket.capacity() * sizeof(std::uint32_t);
  return bytes;
}

}  // namespace agentnet
