#include "geom/spatial_grid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "mobility/mobility.hpp"

namespace agentnet {
namespace {

const Aabb kArena{{0.0, 0.0}, {100.0, 100.0}};

std::vector<std::size_t> query(const SpatialGrid& grid, Vec2 point,
                               double radius) {
  std::vector<std::size_t> out;
  grid.query(point, radius, out);
  return out;
}

TEST(SpatialGridTest, RejectsBadConstruction) {
  EXPECT_THROW(SpatialGrid(kArena, 0.0), ConfigError);
  EXPECT_THROW(SpatialGrid({{0.0, 0.0}, {0.0, 10.0}}, 1.0), ConfigError);
}

TEST(SpatialGridTest, EmptyGridQueriesNothing) {
  SpatialGrid grid(kArena, 10.0);
  grid.rebuild({});
  EXPECT_TRUE(query(grid, {50.0, 50.0}, 100.0).empty());
}

TEST(SpatialGridTest, FindsSelf) {
  SpatialGrid grid(kArena, 10.0);
  grid.rebuild({{50.0, 50.0}});
  const auto hits = query(grid, {50.0, 50.0}, 0.0);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 0u);
}

TEST(SpatialGridTest, RadiusBoundaryInclusive) {
  SpatialGrid grid(kArena, 10.0);
  grid.rebuild({{10.0, 10.0}, {13.0, 14.0}});  // distance exactly 5
  EXPECT_EQ(query(grid, {10.0, 10.0}, 5.0).size(), 2u);
  EXPECT_EQ(query(grid, {10.0, 10.0}, 4.999).size(), 1u);
}

TEST(SpatialGridTest, QueryCrossesCellBoundaries) {
  SpatialGrid grid(kArena, 5.0);
  grid.rebuild({{4.9, 4.9}, {5.1, 5.1}});
  EXPECT_EQ(query(grid, {4.9, 4.9}, 1.0).size(), 2u);
}

TEST(SpatialGridTest, MatchesBruteForceOnRandomPoints) {
  Rng rng(123);
  auto points = random_positions(400, kArena, rng);
  SpatialGrid grid(kArena, 12.0);
  grid.rebuild(points);
  for (int trial = 0; trial < 50; ++trial) {
    const Vec2 q{rng.uniform_real(0.0, 100.0), rng.uniform_real(0.0, 100.0)};
    const double radius = rng.uniform_real(0.0, 30.0);
    std::vector<std::size_t> expected;
    for (std::size_t i = 0; i < points.size(); ++i)
      if (distance(q, points[i]) <= radius) expected.push_back(i);
    EXPECT_EQ(query(grid, q, radius), expected);
  }
}

TEST(SpatialGridTest, RadiusLargerThanCellSizeWorks) {
  Rng rng(7);
  auto points = random_positions(200, kArena, rng);
  SpatialGrid grid(kArena, 5.0);  // query radius far exceeds the cell size
  grid.rebuild(points);
  const double radius = 40.0;
  const Vec2 q{50.0, 50.0};
  std::vector<std::size_t> expected;
  for (std::size_t i = 0; i < points.size(); ++i)
    if (distance(q, points[i]) <= radius) expected.push_back(i);
  EXPECT_EQ(query(grid, q, radius), expected);
}

TEST(SpatialGridTest, PointsOutsideBoundsClampIntoEdgeCells) {
  SpatialGrid grid(kArena, 10.0);
  grid.rebuild({{150.0, 150.0}});  // clamped to the corner cell
  // The stored position is kept verbatim; only the cell is clamped, so a
  // query near the true position must still find it.
  EXPECT_EQ(query(grid, {150.0, 150.0}, 1.0).size(), 1u);
}

TEST(SpatialGridTest, RebuildReplacesContents) {
  SpatialGrid grid(kArena, 10.0);
  grid.rebuild({{10.0, 10.0}});
  grid.rebuild({{90.0, 90.0}});
  EXPECT_TRUE(query(grid, {10.0, 10.0}, 5.0).empty());
  EXPECT_EQ(query(grid, {90.0, 90.0}, 5.0).size(), 1u);
  EXPECT_EQ(grid.size(), 1u);
}

TEST(SpatialGridTest, NegativeRadiusFindsNothing) {
  SpatialGrid grid(kArena, 10.0);
  grid.rebuild({{50.0, 50.0}});
  EXPECT_TRUE(query(grid, {50.0, 50.0}, -1.0).empty());
}

TEST(SpatialGridTest, MoveAcrossCellBoundaryMatchesFreshRebuild) {
  std::vector<Vec2> points{{12.0, 12.0}, {45.0, 45.0}, {47.0, 44.0}};
  SpatialGrid moved(kArena, 10.0);
  moved.rebuild(points);
  // Cross a cell boundary (cell (1,1) -> (8,8)).
  points[0] = {88.0, 88.0};
  EXPECT_TRUE(moved.move(0, points[0]));
  EXPECT_EQ(moved.position(0), points[0]);
  SpatialGrid fresh(kArena, 10.0);
  fresh.rebuild(points);
  for (int trial = 0; trial < 25; ++trial) {
    Rng rng(static_cast<std::uint64_t>(trial) + 1);
    const Vec2 q{rng.uniform_real(0.0, 100.0), rng.uniform_real(0.0, 100.0)};
    const double radius = rng.uniform_real(0.0, 60.0);
    EXPECT_EQ(query(moved, q, radius), query(fresh, q, radius))
        << "trial " << trial;
  }
}

TEST(SpatialGridTest, MoveWithinCellReturnsFalseButUpdatesPosition) {
  SpatialGrid grid(kArena, 10.0);
  grid.rebuild({{12.0, 12.0}});
  // Same cell (1,1): no bucket surgery, but the stored point must follow —
  // queries resolve against exact positions, not cells.
  EXPECT_FALSE(grid.move(0, {17.0, 18.0}));
  EXPECT_EQ(grid.position(0), (Vec2{17.0, 18.0}));
  EXPECT_TRUE(query(grid, {12.0, 12.0}, 1.0).empty());
  EXPECT_EQ(query(grid, {17.0, 18.0}, 1.0).size(), 1u);
}

TEST(SpatialGridTest, NoOpMoveIsClean) {
  SpatialGrid grid(kArena, 10.0);
  grid.rebuild({{33.0, 66.0}});
  EXPECT_FALSE(grid.move(0, {33.0, 66.0}));
  EXPECT_EQ(grid.position(0), (Vec2{33.0, 66.0}));
  EXPECT_EQ(query(grid, {33.0, 66.0}, 0.5).size(), 1u);
}

TEST(SpatialGridTest, ManyRandomMovesMatchFreshRebuild) {
  Rng rng(2024);
  auto points = random_positions(120, kArena, rng);
  SpatialGrid moved(kArena, 8.0);
  moved.rebuild(points);
  for (int round = 0; round < 40; ++round) {
    const std::size_t i = rng.index(points.size());
    points[i] = {rng.uniform_real(0.0, 100.0), rng.uniform_real(0.0, 100.0)};
    moved.move(i, points[i]);
  }
  SpatialGrid fresh(kArena, 8.0);
  fresh.rebuild(points);
  for (int trial = 0; trial < 30; ++trial) {
    const Vec2 q{rng.uniform_real(0.0, 100.0), rng.uniform_real(0.0, 100.0)};
    const double radius = rng.uniform_real(0.0, 25.0);
    EXPECT_EQ(query(moved, q, radius), query(fresh, q, radius))
        << "trial " << trial;
  }
}

TEST(SpatialGridTest, ForEachVisitsEveryMatchOnce) {
  SpatialGrid grid(kArena, 10.0);
  grid.rebuild({{50.0, 50.0}, {51.0, 50.0}, {52.0, 50.0}});
  std::vector<std::size_t> seen;
  grid.for_each_within({51.0, 50.0}, 2.0,
                       [&](std::size_t j) { seen.push_back(j); });
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2}));
}

// ---------------------------------------------------------------------------
// Scale hazards: huge arenas and tiny cells must not overflow the cell
// count (kMaxCells coarsening), and non-finite geometry is rejected loudly.

TEST(SpatialGridTest, RejectsNonFiniteGeometry) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(SpatialGrid(kArena, inf), ConfigError);
  EXPECT_THROW(SpatialGrid(kArena, nan), ConfigError);
  EXPECT_THROW(SpatialGrid({{0.0, 0.0}, {inf, 100.0}}, 10.0), ConfigError);
  EXPECT_THROW(SpatialGrid({{nan, 0.0}, {100.0, 100.0}}, 10.0), ConfigError);
  EXPECT_THROW(SpatialGrid(kArena, -1.0), ConfigError);
}

TEST(SpatialGridTest, HugeBoundsCoarsenCellSizeInsteadOfOverflowing) {
  // 1e9 × 1e9 arena with cell size 1 would want 1e18 cells — far beyond
  // any int. Construction must coarsen until cols*rows <= kMaxCells.
  const Aabb huge{{0.0, 0.0}, {1e9, 1e9}};
  SpatialGrid grid(huge, 1.0);
  EXPECT_GT(grid.cell_size(), 1.0);  // was coarsened
  const double cols = std::ceil(1e9 / grid.cell_size());
  EXPECT_LE(cols * cols, static_cast<double>(SpatialGrid::kMaxCells));
  // Queries still work and stay exact on the coarse grid.
  grid.rebuild({{1.0, 1.0}, {5e8, 5e8}, {999999999.0, 1.0}});
  EXPECT_EQ(query(grid, {1.0, 1.0}, 10.0), (std::vector<std::size_t>{0}));
  EXPECT_EQ(query(grid, {5e8, 5e8}, 1.0), (std::vector<std::size_t>{1}));
  EXPECT_EQ(query(grid, {0.0, 0.0}, 2e9).size(), 3u);
}

TEST(SpatialGridTest, ExtremeAspectRatioStaysWithinCap) {
  // A ribbon arena: 1e12 long, 1 tall. The 1-D cell count alone would
  // overflow a 32-bit int without the cap.
  SpatialGrid grid({{0.0, 0.0}, {1e12, 1.0}}, 0.5);
  const double cols = std::ceil(1e12 / grid.cell_size());
  EXPECT_LE(cols, static_cast<double>(SpatialGrid::kMaxCells));
  grid.rebuild({{0.5, 0.5}, {1e12 - 0.5, 0.5}});
  EXPECT_EQ(query(grid, {0.0, 0.5}, 1.0), (std::vector<std::size_t>{0}));
  EXPECT_EQ(query(grid, {1e12, 0.5}, 1.0), (std::vector<std::size_t>{1}));
}

TEST(SpatialGridTest, CoarsenedGridMatchesBruteForce) {
  // Force heavy coarsening, then verify exactness survives it.
  const Aabb arena{{0.0, 0.0}, {1e8, 1e8}};
  Rng rng(77);
  std::vector<Vec2> points;
  for (int i = 0; i < 200; ++i)
    points.push_back({rng.uniform_real(0.0, 1e8), rng.uniform_real(0.0, 1e8)});
  SpatialGrid grid(arena, 0.001);  // absurdly fine request
  grid.rebuild(points);
  for (int trial = 0; trial < 20; ++trial) {
    const Vec2 q{rng.uniform_real(0.0, 1e8), rng.uniform_real(0.0, 1e8)};
    const double radius = rng.uniform_real(0.0, 3e7);
    std::vector<std::size_t> expected;
    for (std::size_t i = 0; i < points.size(); ++i)
      if (distance(q, points[i]) <= radius) expected.push_back(i);
    EXPECT_EQ(query(grid, q, radius), expected);
  }
}

}  // namespace
}  // namespace agentnet
