// Directed graph with per-node sorted adjacency.
//
// The paper's environments make the topology a directed graph (heterogeneous
// battery-degraded radio ranges ⇒ A can hear B without B hearing A). Node
// counts are in the hundreds and topologies are rebuilt wholesale each step
// under mobility, so the representation favours simplicity and cache-friendly
// iteration over incremental update tricks. For rebuild-every-step callers,
// reset() + assign_out_edges() recycle the per-node storage, and CsrView
// freezes a graph into two flat arrays for read-heavy consumers.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "snapshot/bytes.hpp"

namespace agentnet {

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// A directed edge u→v.
struct Edge {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;

  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

class Graph {
 public:
  Graph() = default;
  explicit Graph(std::size_t node_count);

  std::size_t node_count() const { return adjacency_.size(); }
  std::size_t edge_count() const { return edge_count_; }

  /// Adds u→v if absent; returns true when the edge was new. Self-loops are
  /// rejected (a radio does not link to itself).
  bool add_edge(NodeId u, NodeId v);
  /// Adds u→v and v→u.
  void add_undirected_edge(NodeId u, NodeId v);
  /// Removes u→v if present; returns true when an edge was removed.
  bool remove_edge(NodeId u, NodeId v);

  bool has_edge(NodeId u, NodeId v) const;
  /// Out-neighbours of u in ascending id order.
  std::span<const NodeId> out_neighbors(NodeId u) const;
  std::size_t out_degree(NodeId u) const { return out_neighbors(u).size(); }
  /// O(V·log d) single-node scan; when you need every node's in-degree,
  /// use in_degrees() — one pass over the edges instead of V scans.
  std::size_t in_degree(NodeId u) const;
  /// All in-degrees in one pass over the adjacency (O(V+E)).
  std::vector<std::size_t> in_degrees() const;
  /// As above, reusing caller storage.
  void in_degrees(std::vector<std::size_t>& out) const;

  /// All edges in (from, to) lexicographic order.
  std::vector<Edge> edges() const;

  /// Drops all edges, keeps the node set.
  void clear_edges();

  /// Resizes to `node_count` nodes with no edges, recycling each node's
  /// adjacency capacity — the rebuild-every-step entry point.
  void reset(std::size_t node_count);

  /// Replaces u's out-list with `sorted_neighbors` (strictly ascending, no
  /// self-loop), appending into recycled storage. Pairs with reset():
  /// TopologyBuilder writes each adjacency append-only instead of
  /// insertion-sorting edge by edge.
  void assign_out_edges(NodeId u, std::span<const NodeId> sorted_neighbors);

  /// Writes the transpose into `out` (recycling its storage): counting pass
  /// over in_degrees() to reserve, then an append pass that emits each
  /// reversed adjacency already sorted.
  void transposed_into(Graph& out) const;

  friend bool operator==(const Graph&, const Graph&) = default;

  /// Heap footprint of the adjacency storage (bytes/node accounting): row
  /// headers plus every row's reserved capacity. O(V) walk — bench/report
  /// use, not per-step hot path.
  std::size_t heap_bytes() const;

  /// Checkpoint support: node count plus every adjacency row. load_state
  /// re-derives edge_count_ from the rows and validates the strictly-
  /// ascending, no-self-loop row invariant.
  void save_state(snapshot::ByteWriter& w) const {
    w.size(adjacency_.size());
    for (const auto& row : adjacency_) w.pod_vec(row);
  }
  void load_state(snapshot::ByteReader& r) {
    const std::size_t n = r.counted(8);
    reset(n);
    std::vector<NodeId> row;
    for (NodeId u = 0; u < static_cast<NodeId>(n); ++u) {
      r.pod_vec(row);
      for (std::size_t k = 0; k < row.size(); ++k) {
        AGENTNET_REQUIRE(row[k] < n && row[k] != u &&
                             (k == 0 || row[k - 1] < row[k]),
                         "snapshot: malformed adjacency row");
      }
      assign_out_edges(u, row);
    }
  }

 private:
  void check_node(NodeId u) const {
    AGENTNET_ASSERT_MSG(u < adjacency_.size(), "node id out of range");
  }

  std::vector<std::vector<NodeId>> adjacency_;
  std::size_t edge_count_ = 0;
};

/// A frozen CSR snapshot of a Graph: one starts array, one lengths array,
/// one targets array. Read-heavy per-step consumers (BFS, connectivity
/// walks, coverage measurement) iterate this instead of the
/// vector-of-vectors — the whole edge set lives in contiguous allocations,
/// and rebuild_from() recycles them across steps. The neighbour order is
/// exactly the Graph's (ascending), so any algorithm gives bit-identical
/// results on either representation.
///
/// Rows may carry slack capacity: rebuild_padded_from() reserves headroom
/// after each row so patch_row() can replace a single row in place without
/// touching the rest of the layout. World (docs/PERFORMANCE.md, "Topology
/// upkeep") uses this to keep the CSR current at per-dirty-row cost
/// instead of refreezing all n+E entries whenever the edge set changes.
/// Equality is logical (same rows in the same order), independent of slack.
class CsrView {
 public:
  CsrView() = default;
  explicit CsrView(const Graph& graph) { rebuild_from(graph); }

  /// Re-freezes from `graph` with no slack, reusing the arrays.
  void rebuild_from(const Graph& graph);

  /// Re-freezes from `graph` reserving `row_slack` spare target slots after
  /// each row (plus proportional headroom for dense rows) so subsequent
  /// patch_row() calls usually fit in place.
  void rebuild_padded_from(const Graph& graph, std::uint32_t row_slack = 8);

  /// Replaces u's row with `sorted_neighbors` in place. Returns false —
  /// leaving the view unchanged — when the new row exceeds the slot's
  /// capacity; the caller then re-freezes via rebuild_padded_from().
  bool patch_row(NodeId u, std::span<const NodeId> sorted_neighbors);

  std::size_t node_count() const { return lens_.size(); }
  std::size_t edge_count() const { return edge_count_; }

  std::span<const NodeId> out_neighbors(NodeId u) const {
    AGENTNET_ASSERT_MSG(u < lens_.size(), "node id out of range");
    return {targets_.data() + starts_[u], lens_[u]};
  }
  std::size_t out_degree(NodeId u) const { return out_neighbors(u).size(); }
  bool has_edge(NodeId u, NodeId v) const;

  /// Logical equality: same node count and per-row neighbour sequences.
  /// Slack layout is invisible — a padded view equals its dense twin.
  friend bool operator==(const CsrView& a, const CsrView& b);

  /// Heap footprint of the frozen arrays (bytes/node accounting).
  std::size_t heap_bytes() const {
    return starts_.capacity() * sizeof(std::uint32_t) +
           lens_.capacity() * sizeof(std::uint32_t) +
           targets_.capacity() * sizeof(NodeId);
  }

 private:
  std::vector<std::uint32_t> starts_;  // node_count + 1; row u occupies
                                       // [starts_[u], starts_[u+1]) slots
  std::vector<std::uint32_t> lens_;    // node_count; live entries per row
  std::vector<NodeId> targets_;        // slot storage, sorted per row
  std::size_t edge_count_ = 0;
};

}  // namespace agentnet
