#include "net/generators.hpp"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "net/metrics.hpp"

namespace agentnet {
namespace {

TEST(TargetEdgeTest, BasicShape) {
  TargetEdgeParams params;
  params.geometry.node_count = 100;
  params.target_edges = 600;
  params.tolerance = 0.05;
  const auto net = generate_target_edge_network(params, 1);
  EXPECT_EQ(net.positions.size(), 100u);
  EXPECT_EQ(net.base_ranges.size(), 100u);
  EXPECT_EQ(net.graph.node_count(), 100u);
  for (const auto& p : net.positions)
    EXPECT_TRUE(params.geometry.bounds.contains(p));
  // Every range is multiplier × uniform[min_range_factor, 1].
  const auto [lo, hi] =
      std::minmax_element(net.base_ranges.begin(), net.base_ranges.end());
  EXPECT_GT(*lo, 0.0);
  EXPECT_GE(*lo, params.geometry.min_range_factor * *hi - 1e-9);
}

TEST(TargetEdgeTest, RejectsBadParams) {
  TargetEdgeParams params;
  params.geometry.node_count = 1;  // no edge can ever be drawn
  params.target_edges = 10;
  params.max_attempts = 2;
  EXPECT_THROW(generate_target_edge_network(params, 3), ConfigError);
  params = {};
  params.target_edges = 0;
  EXPECT_THROW(generate_target_edge_network(params, 3), ConfigError);
  params = {};
  params.tolerance = 0.0;
  EXPECT_THROW(generate_target_edge_network(params, 3), ConfigError);
}

TEST(TargetEdgeTest, HitsTargetWithinTolerance) {
  TargetEdgeParams params;
  params.geometry.node_count = 120;
  params.target_edges = 700;
  params.tolerance = 0.05;
  const auto net = generate_target_edge_network(params, 99);
  const double err =
      std::abs(static_cast<double>(net.graph.edge_count()) - 700.0) / 700.0;
  EXPECT_LE(err, 0.05);
  EXPECT_TRUE(is_strongly_connected(net.graph));
}

TEST(TargetEdgeTest, DeterministicInSeed) {
  TargetEdgeParams params;
  params.geometry.node_count = 80;
  params.target_edges = 400;
  params.tolerance = 0.05;
  const auto a = generate_target_edge_network(params, 7);
  const auto b = generate_target_edge_network(params, 7);
  EXPECT_EQ(a.graph, b.graph);
  EXPECT_EQ(a.positions, b.positions);
  EXPECT_EQ(a.base_ranges, b.base_ranges);
}

TEST(TargetEdgeTest, DifferentSeedsDifferentNetworks) {
  TargetEdgeParams params;
  params.geometry.node_count = 80;
  params.target_edges = 400;
  params.tolerance = 0.05;
  const auto a = generate_target_edge_network(params, 7);
  const auto b = generate_target_edge_network(params, 8);
  EXPECT_NE(a.positions, b.positions);
}

TEST(TargetEdgeTest, ImpossibleTargetThrows) {
  TargetEdgeParams params;
  params.geometry.node_count = 10;
  params.target_edges = 10 * 9 + 50;  // more than the complete digraph
  params.max_attempts = 3;
  EXPECT_THROW(generate_target_edge_network(params, 1), ConfigError);
}

TEST(ErdosRenyiTest, ExactArcCountAndConnectivity) {
  const Graph g = erdos_renyi_digraph(60, 420, 5);
  EXPECT_EQ(g.node_count(), 60u);
  EXPECT_EQ(g.edge_count(), 420u);
  EXPECT_TRUE(is_strongly_connected(g));
}

TEST(ErdosRenyiTest, DeterministicInSeed) {
  EXPECT_EQ(erdos_renyi_digraph(40, 240, 9), erdos_renyi_digraph(40, 240, 9));
  EXPECT_NE(erdos_renyi_digraph(40, 240, 9),
            erdos_renyi_digraph(40, 240, 10));
}

TEST(ErdosRenyiTest, TooSparseThrows) {
  // 40 nodes with 42 arcs has essentially no strongly connected draws.
  EXPECT_THROW(erdos_renyi_digraph(40, 42, 1, 4), ConfigError);
  EXPECT_THROW(erdos_renyi_digraph(5, 100, 1), ConfigError);
}

TEST(PreferentialAttachmentTest, ShapeAndConnectivity) {
  const Graph g = preferential_attachment_graph(80, 3, 7);
  EXPECT_EQ(g.node_count(), 80u);
  EXPECT_TRUE(is_strongly_connected(g));
  // All edges mutual.
  EXPECT_DOUBLE_EQ(degree_stats(g).symmetry, 1.0);
  // m edges per newcomer: total undirected ≈ seed clique + (n-m-1)m.
  const std::size_t expected_undirected = 3 * (3 + 1) / 2 + (80 - 4) * 3;
  EXPECT_EQ(g.edge_count(), 2 * expected_undirected);
}

TEST(PreferentialAttachmentTest, ProducesHubs) {
  const Graph g = preferential_attachment_graph(300, 2, 11);
  const auto stats = degree_stats(g);
  // Scale-free-ish: the max degree should dwarf the mean.
  EXPECT_GT(static_cast<double>(stats.max_out), 4.0 * stats.mean_out);
}

TEST(PreferentialAttachmentTest, RejectsBadParams) {
  EXPECT_THROW(preferential_attachment_graph(5, 0, 1), ConfigError);
  EXPECT_THROW(preferential_attachment_graph(3, 3, 1), ConfigError);
}

TEST(PaperNetworkTest, MatchesPaperParameters) {
  const auto net = paper_mapping_network(2010);
  EXPECT_EQ(net.graph.node_count(), 300u);
  // 2164 bidirectional links ⇒ 4328 directed arcs (see generators.cpp).
  const double err =
      std::abs(static_cast<double>(net.graph.edge_count()) - 4328.0) / 4328.0;
  EXPECT_LE(err, 0.02) << "edges=" << net.graph.edge_count();
  EXPECT_TRUE(is_strongly_connected(net.graph));
  EXPECT_EQ(net.policy, LinkPolicy::kDirected);
}

TEST(PaperNetworkTest, HasAsymmetricLinks) {
  const auto net = paper_mapping_network(2010);
  const auto stats = degree_stats(net.graph);
  EXPECT_LT(stats.symmetry, 1.0)
      << "heterogeneous ranges must produce one-way links";
  EXPECT_GT(stats.symmetry, 0.3);
}

}  // namespace
}  // namespace agentnet
