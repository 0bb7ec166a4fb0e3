#include "net/graph.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "net/topology.hpp"

namespace agentnet {
namespace {

TEST(GraphTest, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.node_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_TRUE(g.edges().empty());
}

TEST(GraphTest, AddEdgeDirectedOnly) {
  Graph g(3);
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(GraphTest, DuplicateEdgeRejected) {
  Graph g(3);
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_FALSE(g.add_edge(0, 1));
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(GraphTest, SelfLoopRejected) {
  Graph g(2);
  EXPECT_FALSE(g.add_edge(1, 1));
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(GraphTest, UndirectedAddsBoth) {
  Graph g(2);
  g.add_undirected_edge(0, 1);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_EQ(g.edge_count(), 2u);
}

TEST(GraphTest, RemoveEdge) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  EXPECT_TRUE(g.remove_edge(0, 1));
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_FALSE(g.remove_edge(0, 1));  // already gone
}

TEST(GraphTest, NeighborsSortedAscending) {
  Graph g(5);
  g.add_edge(0, 4);
  g.add_edge(0, 1);
  g.add_edge(0, 3);
  const auto n = g.out_neighbors(0);
  ASSERT_EQ(n.size(), 3u);
  EXPECT_EQ(n[0], 1u);
  EXPECT_EQ(n[1], 3u);
  EXPECT_EQ(n[2], 4u);
}

TEST(GraphTest, Degrees) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 1);
  g.add_edge(3, 1);
  g.add_edge(1, 0);
  EXPECT_EQ(g.out_degree(0), 1u);
  EXPECT_EQ(g.out_degree(1), 1u);
  EXPECT_EQ(g.in_degree(1), 3u);
  EXPECT_EQ(g.in_degree(3), 0u);
}

TEST(GraphTest, EdgesLexicographic) {
  Graph g(3);
  g.add_edge(2, 0);
  g.add_edge(0, 2);
  g.add_edge(0, 1);
  const auto edges = g.edges();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0], (Edge{0, 1}));
  EXPECT_EQ(edges[1], (Edge{0, 2}));
  EXPECT_EQ(edges[2], (Edge{2, 0}));
}

TEST(GraphTest, EqualityComparesStructure) {
  Graph a(3), b(3);
  a.add_edge(0, 1);
  EXPECT_NE(a, b);
  b.add_edge(0, 1);
  EXPECT_EQ(a, b);
}

/// The adjacency-matrix model's rows, ascending.
std::vector<NodeId> model_row(const std::vector<std::vector<bool>>& model,
                              NodeId u) {
  std::vector<NodeId> row;
  for (NodeId v = 0; v < model.size(); ++v)
    if (model[u][v]) row.push_back(v);
  return row;
}

/// Rebuilds `model` as a Graph laid out row by row (reset + assign).
Graph laid_out(const std::vector<std::vector<bool>>& model) {
  Graph g;
  g.reset(model.size());
  for (NodeId u = 0; u < model.size(); ++u)
    g.assign_out_edges(u, model_row(model, u));
  return g;
}

void expect_matches_model(const Graph& g,
                          const std::vector<std::vector<bool>>& model,
                          int op) {
  std::size_t model_edges = 0;
  for (NodeId u = 0; u < model.size(); ++u) {
    const std::vector<NodeId> expected = model_row(model, u);
    model_edges += expected.size();
    const auto actual = g.out_neighbors(u);
    ASSERT_TRUE(std::equal(actual.begin(), actual.end(), expected.begin(),
                           expected.end()))
        << "node " << u << " op " << op;
  }
  ASSERT_EQ(g.edge_count(), model_edges) << "op " << op;
}

TEST(GraphTest, FuzzAgainstAdjacencyMatrixModel) {
  // Model-based fuzz: mirror every operation into a dumb adjacency matrix
  // and compare all observable behaviour. Whole-row assignments of up to
  // n - 1 entries outgrow the padded slots, so rows keep moving to the
  // tail of the targets array while single-edge churn patches them in
  // place.
  Rng rng(101);
  const std::size_t n = 40;
  Graph g(n);
  std::vector<std::vector<bool>> model(n, std::vector<bool>(n, false));
  for (int op = 0; op < 20000; ++op) {
    const NodeId u = static_cast<NodeId>(rng.index(n));
    const NodeId v = static_cast<NodeId>(rng.index(n));
    const std::size_t action = rng.index(100);
    if (action < 35) {
      const bool expect_new = u != v && !model[u][v];
      ASSERT_EQ(g.add_edge(u, v), expect_new);
      if (u != v) model[u][v] = true;
    } else if (action < 60) {
      const bool expect_removed = model[u][v];
      ASSERT_EQ(g.remove_edge(u, v), expect_removed);
      model[u][v] = false;
    } else if (action < 80) {
      ASSERT_EQ(g.has_edge(u, v), model[u][v]);
    } else if (action < 95) {
      // Replace u's row with a random subset of any size.
      const double keep = rng.uniform_real(0.0, 1.0);
      for (NodeId w = 0; w < n; ++w)
        model[u][w] = w != u && rng.bernoulli(keep);
      g.assign_out_edges(u, model_row(model, u));
    } else if (action < 99) {
      Graph rev;
      g.transposed_into(rev);
      for (NodeId a = 0; a < n; ++a)
        for (NodeId b = 0; b < n; ++b)
          ASSERT_EQ(rev.has_edge(b, a), model[a][b]) << "op " << op;
      ASSERT_EQ(rev.edge_count(), g.edge_count());
    } else {
      g.reset(n);
      for (auto& row : model) row.assign(n, false);
    }
    if (op % 500 == 0) {
      expect_matches_model(g, model, op);
      ASSERT_EQ(g, laid_out(model)) << "op " << op;
    }
  }
  expect_matches_model(g, model, -1);
  EXPECT_EQ(g, laid_out(model));
  // Moved rows leave dead slots behind, but never more than the live
  // ones: the storage stays within a small multiple of n rows of n slots.
  EXPECT_LT(g.heap_bytes(), 16 * n * n * sizeof(NodeId));
}

TEST(GraphTest, EqualityIgnoresLayout) {
  // One edge set in three layouts: grown edge by edge (rows moved as they
  // outgrew their slots), laid out row by row with slack, and dense.
  Rng rng(5);
  const std::size_t n = 30;
  std::vector<std::vector<bool>> model(n, std::vector<bool>(n, false));
  Graph grown(n);
  for (int k = 0; k < 400; ++k) {
    const NodeId u = static_cast<NodeId>(rng.index(n));
    const NodeId v = static_cast<NodeId>(rng.index(n));
    if (u == v) continue;
    grown.add_edge(u, v);
    model[u][v] = true;
  }
  const Graph padded = laid_out(model);
  Graph rev;
  Graph dense;
  grown.transposed_into(rev);
  rev.transposed_into(dense);
  EXPECT_EQ(grown, padded);
  EXPECT_EQ(padded, dense);
  EXPECT_EQ(grown, dense);
  EXPECT_EQ(grown.edges(), dense.edges());
  EXPECT_LT(dense.heap_bytes(), grown.heap_bytes());
  // One differing edge breaks equality whatever the layouts.
  Graph changed = dense;
  const Edge e = dense.edges().front();
  changed.remove_edge(e.from, e.to);
  EXPECT_NE(changed, padded);
  changed.add_edge(e.from, e.to);
  EXPECT_EQ(changed, padded);
  // Same rows over a different node count are different graphs.
  EXPECT_NE(Graph(3), Graph(4));
}

TEST(GraphTest, SaveStateMatchesHandBuiltEncoding) {
  // Node count, then each row as a length-prefixed list; every integer is
  // a little-endian u64.
  snapshot::ByteWriter expected;
  for (std::uint64_t word : {3, /*row 0*/ 2, 1, 2, /*row 1*/ 0,
                             /*row 2*/ 1, 0})
    expected.u64(word);
  Graph padded(3);
  padded.add_edge(0, 2);
  padded.add_edge(2, 0);
  padded.add_edge(0, 1);
  Graph rev;
  Graph dense;
  padded.transposed_into(rev);
  rev.transposed_into(dense);
  for (const Graph* g : {&padded, &dense}) {
    snapshot::ByteWriter w;
    g->save_state(w);
    EXPECT_EQ(w.bytes(), expected.bytes());
    snapshot::ByteReader r(w.bytes());
    Graph loaded;
    loaded.load_state(r);
    EXPECT_TRUE(r.done());
    EXPECT_EQ(loaded, *g);
  }
}

TEST(GraphTest, EdgeCountConsistentUnderRandomChurn) {
  Rng rng(77);
  Graph g(30);
  std::size_t expected = 0;
  for (int op = 0; op < 5000; ++op) {
    const NodeId u = static_cast<NodeId>(rng.index(30));
    const NodeId v = static_cast<NodeId>(rng.index(30));
    if (rng.bernoulli(0.6)) {
      if (g.add_edge(u, v)) ++expected;
    } else {
      if (g.remove_edge(u, v)) --expected;
    }
    ASSERT_EQ(g.edge_count(), expected);
  }
  EXPECT_EQ(g.edges().size(), expected);
}

TEST(GraphTest, MirrorWalkSurvivesNeighbourRowMoves) {
  // TopologyBuilder::update_into's symmetric mirror walk adds a dirty node
  // to its clean neighbours' rows while it still reads the node's old row.
  // Ten nodes (0-9) leave a cluster of clean nodes 30-49 for one of clean
  // nodes 10-29, whose rows have 8 spare slots: the ninth arrival moves
  // every one of them to the tail, reallocating the targets array in the
  // middle of a walk that still has old neighbours 30-49 to read.
  const Aabb arena{{0.0, 0.0}, {100.0, 100.0}};
  std::vector<Vec2> positions(50);
  for (NodeId i = 0; i < 10; ++i) positions[i] = {10.0 + 0.1 * i, 50.0};
  for (NodeId i = 10; i < 30; ++i) positions[i] = {90.0 + 0.1 * (i - 10), 50.0};
  for (NodeId i = 30; i < 50; ++i) positions[i] = {10.0 + 0.1 * (i - 30), 52.0};
  const std::vector<double> ranges(50, 5.0);
  TopologyBuilder builder(arena, 5.0, LinkPolicy::kSymmetricAnd);
  Graph g;
  builder.build_into(g, positions, ranges);
  ASSERT_EQ(g.out_degree(0), 29u);
  ASSERT_EQ(g.out_degree(10), 19u);

  std::vector<NodeId> dirty;
  for (NodeId i = 0; i < 10; ++i) {
    positions[i] = {90.05 + 0.1 * i, 51.0};
    dirty.push_back(i);
  }
  EXPECT_TRUE(builder.update_into(g, dirty, positions, ranges, {}));
  TopologyBuilder fresh(arena, 5.0, LinkPolicy::kSymmetricAnd);
  EXPECT_EQ(g, fresh.build(positions, ranges));
  EXPECT_EQ(g.out_degree(10), 29u);
  EXPECT_EQ(g.out_degree(30), 19u);
}

}  // namespace
}  // namespace agentnet
