#include "net/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.hpp"
#include "net/generators.hpp"

namespace agentnet {
namespace {

Graph paper_mapping_network_for_metrics_test() {
  return paper_mapping_network(2010).graph;
}

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

TEST(SccTest, TwoComponentsOfAChainOfCycles) {
  // Nodes 0-2 form a cycle, 3-5 form a cycle, one edge 2→3 between them.
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  g.add_edge(5, 3);
  g.add_edge(2, 3);
  const auto comp = strongly_connected_components(g);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[1], comp[2]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_EQ(comp[4], comp[5]);
  EXPECT_NE(comp[0], comp[3]);
  const std::set<int> ids(comp.begin(), comp.end());
  EXPECT_EQ(ids.size(), 2u);
}

TEST(SccTest, SingletonsWithoutCycles) {
  const Graph g = chain(4);
  const auto comp = strongly_connected_components(g);
  const std::set<int> ids(comp.begin(), comp.end());
  EXPECT_EQ(ids.size(), 4u);
}

TEST(SccTest, AgreesWithIsStronglyConnectedOnRandomGraphs) {
  Rng rng(55);
  for (int trial = 0; trial < 30; ++trial) {
    Graph g(20);
    const int edges = static_cast<int>(rng.uniform_int(10, 80));
    for (int e = 0; e < edges; ++e)
      g.add_edge(static_cast<NodeId>(rng.index(20)),
                 static_cast<NodeId>(rng.index(20)));
    const auto comp = strongly_connected_components(g);
    const bool one_comp =
        std::all_of(comp.begin(), comp.end(), [&](int c) { return c == comp[0]; });
    EXPECT_EQ(one_comp, is_strongly_connected(g));
  }
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

TEST(ClusteringTest, TriangleIsFullyClustered) {
  Graph g(3);
  g.add_undirected_edge(0, 1);
  g.add_undirected_edge(1, 2);
  g.add_undirected_edge(0, 2);
  EXPECT_DOUBLE_EQ(clustering_coefficient(g), 1.0);
}

TEST(ClusteringTest, TreeHasNone) {
  EXPECT_DOUBLE_EQ(clustering_coefficient(chain(6)), 0.0);
  EXPECT_DOUBLE_EQ(clustering_coefficient(Graph(3)), 0.0);
}

TEST(ClusteringTest, KnownSmallGraph) {
  // Triangle 0-1-2 plus pendant 3 on node 0: centre 0 has neighbours
  // {1,2,3} → 3 pairs, 1 closed; centres 1,2 have 1 closed pair each.
  Graph g(4);
  g.add_undirected_edge(0, 1);
  g.add_undirected_edge(1, 2);
  g.add_undirected_edge(0, 2);
  g.add_undirected_edge(0, 3);
  EXPECT_NEAR(clustering_coefficient(g), 3.0 / 5.0, 1e-12);
}

TEST(ClusteringTest, GeometricClustersMoreThanRandom) {
  const auto geo = paper_mapping_network_for_metrics_test();
  const Graph er = erdos_renyi_digraph(300, 4328, 3);
  EXPECT_GT(clustering_coefficient(geo), 3.0 * clustering_coefficient(er))
      << "radio graphs are locally dense; ER graphs are not";
}

TEST(HopHistogramTest, ChainCounts) {
  const auto hist = hop_histogram(chain(4), 0);
  ASSERT_EQ(hist.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(hist[i], 1u);
}

TEST(HopHistogramTest, ExcludesUnreachable) {
  Graph g(3);
  g.add_edge(0, 1);  // 2 unreachable
  const auto hist = hop_histogram(g, 0);
  std::size_t total = 0;
  for (auto c : hist) total += c;
  EXPECT_EQ(total, 2u);
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
