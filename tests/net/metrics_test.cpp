#include "net/metrics.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace agentnet {
namespace {

Graph chain(std::size_t n) {
  Graph g(n);
  for (NodeId i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  return g;
}

Graph cycle(std::size_t n) {
  Graph g = chain(n);
  g.add_edge(static_cast<NodeId>(n - 1), 0);
  return g;
}

TEST(BfsTest, ChainDistances) {
  const Graph g = chain(5);
  const auto d = bfs_distances(g, 0);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(d[i], i);
}

TEST(BfsTest, UnreachableIsMinusOne) {
  const Graph g = chain(3);
  const auto d = bfs_distances(g, 2);  // edges point forward only
  EXPECT_EQ(d[2], 0);
  EXPECT_EQ(d[0], -1);
  EXPECT_EQ(d[1], -1);
}

TEST(BfsTest, ShortestPathChosen) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 3);
  g.add_edge(0, 3);  // shortcut
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[3], 1);
}

TEST(ReachabilityTest, CountsSelf) {
  Graph g(3);
  EXPECT_EQ(reachable_count(g, 1), 1u);
}

TEST(StrongConnectivityTest, CycleIsStrong) {
  EXPECT_TRUE(is_strongly_connected(cycle(6)));
}

TEST(StrongConnectivityTest, ChainIsNotStrongButWeak) {
  const Graph g = chain(4);
  EXPECT_FALSE(is_strongly_connected(g));
  EXPECT_TRUE(is_weakly_connected(g));
}

TEST(StrongConnectivityTest, DisconnectedIsNeither) {
  Graph g(4);
  g.add_undirected_edge(0, 1);
  g.add_undirected_edge(2, 3);
  EXPECT_FALSE(is_strongly_connected(g));
  EXPECT_FALSE(is_weakly_connected(g));
}

TEST(StrongConnectivityTest, EmptyAndSingleton) {
  EXPECT_TRUE(is_strongly_connected(Graph{}));
  EXPECT_TRUE(is_strongly_connected(Graph(1)));
  EXPECT_TRUE(is_weakly_connected(Graph(1)));
}

TEST(DiameterTest, CycleDiameter) {
  EXPECT_EQ(diameter(cycle(5)), 4);  // directed cycle: worst pair is n-1
}

TEST(DiameterTest, UnreachablePairGivesMinusOne) {
  EXPECT_EQ(diameter(chain(3)), -1);
}

TEST(DegreeStatsTest, CountsAndSymmetry) {
  Graph g(4);
  g.add_undirected_edge(0, 1);
  g.add_edge(2, 3);
  const auto s = degree_stats(g);
  EXPECT_EQ(s.min_out, 0u);  // node 3 has no out-edges
  EXPECT_EQ(s.max_out, 1u);
  EXPECT_DOUBLE_EQ(s.mean_out, 3.0 / 4.0);
  EXPECT_NEAR(s.symmetry, 2.0 / 3.0, 1e-12);
}

TEST(ReversedTest, EdgesFlip) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const Graph r = reversed(g);
  EXPECT_TRUE(r.has_edge(1, 0));
  EXPECT_TRUE(r.has_edge(2, 1));
  EXPECT_EQ(r.edge_count(), 2u);
  EXPECT_FALSE(r.has_edge(0, 1));
}

TEST(ReversedTest, DoubleReversalIsIdentity) {
  Rng rng(66);
  Graph g(15);
  for (int e = 0; e < 40; ++e)
    g.add_edge(static_cast<NodeId>(rng.index(15)),
               static_cast<NodeId>(rng.index(15)));
  EXPECT_EQ(reversed(reversed(g)), g);
}

}  // namespace
}  // namespace agentnet
