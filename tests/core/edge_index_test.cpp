#include "core/edge_index.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "net/generators.hpp"
#include "snapshot/bytes.hpp"

namespace agentnet {
namespace {

TEST(EdgeIndexTest, SeededIdsFollowCsrOrder) {
  const GeneratedNetwork net = paper_mapping_network(2010);
  const Graph& g = net.graph;
  const EdgeIndex index(g);
  ASSERT_EQ(index.node_count(), g.node_count());
  EXPECT_EQ(index.size(), g.edge_count());
  EdgeId next = 0;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const auto targets = g.out_neighbors(u);
    const auto row = index.row(u);
    ASSERT_EQ(row.size(), targets.size());
    // Row u holds the next deg(u) ids, in the graph row's order.
    for (std::size_t k = 0; k < row.size(); ++k) {
      EXPECT_EQ(row[k].target, targets[k]);
      EXPECT_EQ(row[k].id, next++);
      EXPECT_EQ(index.find(u, targets[k]), row[k].id);
    }
  }
}

TEST(EdgeIndexTest, LookupMissIsReported) {
  Graph g(4);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  const EdgeIndex index(g);
  EXPECT_EQ(index.find(0, 1), EdgeIndex::kMiss);  // before a row entry
  EXPECT_EQ(index.find(0, 3), EdgeIndex::kMiss);  // past the row's end
  EXPECT_EQ(index.find(2, 0), EdgeIndex::kMiss);  // empty row
  EXPECT_EQ(index.find(3, 1), EdgeIndex::kMiss);  // reverse of an arc
  EXPECT_EQ(index.find(0, 2), 0u);
  EXPECT_EQ(index.find(1, 3), 1u);
}

TEST(EdgeIndexTest, RegistrationIsAppendOnly) {
  Graph g(5);
  g.add_edge(1, 2);
  g.add_edge(1, 4);
  EdgeIndex index(g);
  const std::vector<NodeId> row{0, 2, 3, 4};
  EXPECT_EQ(index.add_row(1, row), 2u);  // 1→0 and 1→3 are new
  EXPECT_EQ(index.size(), 4u);
  // Old ids keep their values; new ones are appended in row order, and
  // the row stays ascending by target.
  EXPECT_EQ(index.find(1, 2), 0u);
  EXPECT_EQ(index.find(1, 4), 1u);
  EXPECT_EQ(index.find(1, 0), 2u);
  EXPECT_EQ(index.find(1, 3), 3u);
  const auto r = index.row(1);
  ASSERT_EQ(r.size(), 4u);
  for (std::size_t k = 0; k < r.size(); ++k) EXPECT_EQ(r[k].target, row[k]);
  EXPECT_EQ(index.add_row(1, row), 0u) << "re-registration is a no-op";
  EXPECT_EQ(index.size(), 4u);
}

// The checkpoint encoding is the node-pair layout: an index that numbered
// the arcs differently writes the same bytes for the same arc set.
TEST(EdgeIndexTest, PairEncodingIgnoresIdOrder) {
  EdgeIndex forward{Graph(3)}, backward{Graph(3)};
  const std::vector<NodeId> a{1}, b{0, 2};
  forward.add_row(0, a);
  forward.add_row(2, b);
  backward.add_row(2, b);
  backward.add_row(0, a);
  DenseBitset in_forward(3), in_backward(3);
  in_forward.set(forward.find(0, 1));
  in_forward.set(forward.find(2, 0));
  in_backward.set(backward.find(0, 1));
  in_backward.set(backward.find(2, 0));
  snapshot::ByteWriter wf, wb;
  forward.save_pairs(in_forward, wf);
  backward.save_pairs(in_backward, wb);
  EXPECT_EQ(wf.bytes(), wb.bytes());

  EdgeIndex fresh{Graph(3)};  // registers what the stream names
  snapshot::ByteReader r(wf.bytes());
  const DenseBitset loaded = fresh.load_pairs(r);
  EXPECT_EQ(fresh.size(), 2u);
  EXPECT_EQ(loaded.count(), 2u);
  EXPECT_TRUE(loaded.test(fresh.find(0, 1)));
  EXPECT_TRUE(loaded.test(fresh.find(2, 0)));
}

TEST(EdgeIndexTest, PairEncodingOfWrongSizeRejected) {
  snapshot::ByteWriter w;
  DenseBitset(10).save_state(w);
  EdgeIndex index{Graph(3)};
  snapshot::ByteReader r(w.bytes());
  EXPECT_THROW(index.load_pairs(r), ConfigError);
}

}  // namespace
}  // namespace agentnet
