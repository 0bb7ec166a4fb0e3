#include "routing/connectivity.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace agentnet {
namespace {

// Line 0-1-2-3 with gateway 0; tables route every node toward 0.
struct LineFixture {
  Graph graph{4};
  RoutingTables tables{4};
  std::vector<bool> is_gateway{true, false, false, false};

  LineFixture() {
    graph.add_undirected_edge(0, 1);
    graph.add_undirected_edge(1, 2);
    graph.add_undirected_edge(2, 3);
    tables.force(1, {0, 0, 1, 0});
    tables.force(2, {1, 0, 2, 0});
    tables.force(3, {2, 0, 3, 0});
  }
};

TEST(ConnectivityTest, FullyRoutedLine) {
  LineFixture f;
  const auto r = measure_connectivity(f.graph, f.tables, f.is_gateway);
  EXPECT_EQ(r.connected, 4u);
  EXPECT_EQ(r.total, 4u);
  EXPECT_DOUBLE_EQ(r.fraction(), 1.0);
}

TEST(ConnectivityTest, GatewayAlwaysConnectedEvenWithoutRoute) {
  Graph g(2);
  RoutingTables t(2);
  const auto r = measure_connectivity(g, t, {true, false});
  EXPECT_EQ(r.connected, 1u);
}

TEST(ConnectivityTest, BrokenLinkInvalidatesDownstream) {
  LineFixture f;
  f.graph.remove_edge(1, 0);  // the hop 1→0 is gone
  const auto r = measure_connectivity(f.graph, f.tables, f.is_gateway);
  // Only the gateway itself remains connected: 2 and 3 route through 1.
  EXPECT_EQ(r.connected, 1u);
}

TEST(ConnectivityTest, MissingEntryDisconnects) {
  LineFixture f;
  f.tables.clear(2);
  const auto flags = valid_route_flags(f.graph, f.tables, f.is_gateway);
  EXPECT_TRUE(flags[0]);
  EXPECT_TRUE(flags[1]);
  EXPECT_FALSE(flags[2]);
  EXPECT_FALSE(flags[3]);  // routes through 2
}

TEST(ConnectivityTest, RoutingLoopDetected) {
  Graph g(3);
  g.add_undirected_edge(1, 2);
  RoutingTables t(3);
  t.force(1, {2, 0, 1, 0});
  t.force(2, {1, 0, 1, 0});  // 1 ⇄ 2 loop, never reaches gateway 0
  const auto r = measure_connectivity(g, t, {true, false, false});
  EXPECT_EQ(r.connected, 1u);
}

TEST(ConnectivityTest, SelfLoopRouteDetected) {
  Graph g(2);
  RoutingTables t(2);
  t.force(1, {1, 0, 1, 0});  // routes to itself (no such edge anyway)
  const auto r = measure_connectivity(g, t, {true, false});
  EXPECT_EQ(r.connected, 1u);
}

TEST(ConnectivityTest, HopBudgetCutsLongRoutes) {
  LineFixture f;
  const auto all = measure_connectivity(f.graph, f.tables, f.is_gateway, 3);
  EXPECT_EQ(all.connected, 4u);
  const auto cut = measure_connectivity(f.graph, f.tables, f.is_gateway, 2);
  // Node 3 needs 3 hops; with budget 2 its walk is truncated.
  EXPECT_EQ(cut.connected, 3u);
}

TEST(ConnectivityTest, MemoisationConsistentWithSharedPrefixes) {
  // Star of chains all feeding through node 1 toward gateway 0.
  Graph g(6);
  g.add_undirected_edge(0, 1);
  for (NodeId leaf = 2; leaf < 6; ++leaf) g.add_undirected_edge(1, leaf);
  RoutingTables t(6);
  t.force(1, {0, 0, 1, 0});
  for (NodeId leaf = 2; leaf < 6; ++leaf) t.force(leaf, {1, 0, 2, 0});
  const auto r =
      measure_connectivity(g, t, {true, false, false, false, false, false});
  EXPECT_EQ(r.connected, 6u);
}

TEST(ConnectivityTest, EmptyFractionIsZero) {
  ConnectivityResult r;
  EXPECT_DOUBLE_EQ(r.fraction(), 0.0);
}

TEST(ConnectivityTest, MemoisedWalkMatchesNaiveOnRandomInputs) {
  // Property: the memoised measurement equals an oblivious per-node walk
  // with a visited set, across random graphs and random tables.
  Rng rng(99);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 30;
    Graph g(n);
    const int edges = 20 + static_cast<int>(rng.index(101));
    for (int e = 0; e < edges; ++e)
      g.add_edge(static_cast<NodeId>(rng.index(n)),
                 static_cast<NodeId>(rng.index(n)));
    std::vector<bool> is_gateway(n, false);
    for (auto idx : rng.sample_indices(n, 3)) is_gateway[idx] = true;
    RoutingTables tables(n);
    for (NodeId v = 0; v < n; ++v)
      if (rng.bernoulli(0.8))
        tables.force(v, {static_cast<NodeId>(rng.index(n)), 0, 1, 0});

    const auto fast = valid_route_flags(g, tables, is_gateway);
    for (NodeId start = 0; start < n; ++start) {
      // Naive reference walk.
      std::vector<bool> visited(n, false);
      NodeId u = start;
      bool ok = false;
      while (true) {
        if (is_gateway[u]) {
          ok = true;
          break;
        }
        if (visited[u]) break;
        visited[u] = true;
        const RouteEntry& e = tables.entry(u);
        if (!e.valid() || !g.has_edge(u, e.next_hop)) break;
        u = e.next_hop;
      }
      ASSERT_EQ(fast[start], ok)
          << "trial " << trial << " node " << start;
    }
  }
}

TEST(OracleTest, MatchesReachability) {
  Graph g(4);
  g.add_edge(1, 0);  // 1 can send to gateway 0
  g.add_edge(2, 1);  // 2 via 1
  // 3 isolated.
  const auto r = oracle_connectivity(g, {true, false, false, false});
  EXPECT_EQ(r.connected, 3u);
  EXPECT_EQ(r.total, 4u);
}

TEST(OracleTest, BoundsTableConnectivity) {
  LineFixture f;
  const auto table = measure_connectivity(f.graph, f.tables, f.is_gateway);
  const auto oracle = oracle_connectivity(f.graph, f.is_gateway);
  EXPECT_LE(table.connected, oracle.connected);
}

TEST(OracleTest, MultipleGateways) {
  Graph g(4);
  g.add_edge(1, 0);
  g.add_edge(2, 3);
  const auto r = oracle_connectivity(g, {true, false, false, true});
  EXPECT_EQ(r.connected, 4u);
}

}  // namespace
}  // namespace agentnet
