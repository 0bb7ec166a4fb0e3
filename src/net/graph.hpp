// Directed graph with per-node sorted adjacency, stored as a padded CSR.
//
// The paper's environments make the topology a directed graph (heterogeneous
// battery-degraded radio ranges ⇒ A can hear B without B hearing A), and
// under mobility its links change every step. One representation serves
// every caller, from a 250-node paper scenario to a million-node field
// (docs/PERFORMANCE.md, "One graph representation"): three per-node arrays
// (slot start, live length, slot capacity) over one flat targets array.
// Each row lives in its own slot with spare capacity after its live
// entries, so World's per-step upkeep patches the few rows a step touches
// in place. A row that outgrows its slot moves to the tail of the targets
// array with at least doubled capacity, so the slots moved rows leave
// behind stay below half the array. reset() + assign_out_edges()
// lay a graph out row by row into recycled storage, and read-heavy
// consumers (BFS, connectivity walks, coverage measurement) iterate the
// flat arrays directly.
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

  std::size_t node_count() const { return lens_.size(); }
  std::size_t edge_count() const { return edge_count_; }

  /// Adds u→v if absent; returns true when the edge was new. Self-loops are
  /// rejected (a radio does not link to itself).
  bool add_edge(NodeId u, NodeId v);
  /// Adds u→v and v→u.
  void add_undirected_edge(NodeId u, NodeId v);
  /// Removes u→v if present; returns true when an edge was removed.
  bool remove_edge(NodeId u, NodeId v);

  bool has_edge(NodeId u, NodeId v) const;
  /// Out-neighbours of u in ascending id order. The span aliases the
  /// graph's storage: any mutation that grows a row (add_edge,
  /// assign_out_edges) may move it, so copy a row before mutating others.
  std::span<const NodeId> out_neighbors(NodeId u) const {
    check_node(u);
    return {targets_.data() + starts_[u], lens_[u]};
  }
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

  /// Resizes to `node_count` nodes with no edges, keeping the targets
  /// array's capacity — the rebuild-every-step entry point.
  void reset(std::size_t node_count);

  /// Length of the targets array: live rows, their spare slots and dead
  /// slots. reserve_targets(n) makes room for n entries, so rows assigned
  /// later are appended without moving the array.
  std::size_t targets_size() const { return targets_.size(); }
  void reserve_targets(std::size_t n) { targets_.reserve(n); }

  /// Replaces u's out-list with `sorted_neighbors` (strictly ascending, no
  /// self-loop, not aliasing this graph's storage), in place when it fits
  /// u's slot. Pairs with reset(): rows assigned in node order after a
  /// reset are laid out back to back, each with spare slots for later
  /// growth.
  void assign_out_edges(NodeId u, std::span<const NodeId> sorted_neighbors);

  /// Writes the transpose into `out` with a dense, slack-free layout:
  /// counting pass to place each reversed row, then an append pass that
  /// emits each one already sorted.
  void transposed_into(Graph& out) const;

  /// Logical equality: same node count and per-row neighbour sequences.
  /// Slot layout is invisible — a padded graph equals its dense twin.
  friend bool operator==(const Graph& a, const Graph& b);
  /// Test oracle for the layout operator== ignores: equal graphs whose
  /// rows sit in the same slots (starts, lens, caps, array length).
  friend bool same_layout(const Graph& a, const Graph& b);

  /// Heap footprint of the arrays (bytes/node accounting).
  std::size_t heap_bytes() const {
    return (starts_.capacity() + lens_.capacity() + caps_.capacity() +
            targets_.capacity()) *
           sizeof(std::uint32_t);
  }

  /// Checkpoint support: node count plus every adjacency row, each as a
  /// length-prefixed list. load_state re-derives edge_count() from the rows
  /// and validates the strictly-ascending, no-self-loop row invariant.
  void save_state(snapshot::ByteWriter& w) const;
  void load_state(snapshot::ByteReader& r);

 private:
  /// Spare slots given to a row laid out from empty.
  static constexpr std::uint32_t kRowSlack = 8;

  void check_node(NodeId u) const {
    AGENTNET_ASSERT_MSG(u < lens_.size(), "node id out of range");
  }
  /// Grows u's slot to hold `need` entries, moving the row to the tail
  /// with doubled capacity when it does not fit.
  void make_room(NodeId u, std::size_t need);

  std::vector<std::uint32_t> starts_;  // row u occupies targets_[starts_[u]
  std::vector<std::uint32_t> lens_;    //   .. starts_[u] + caps_[u]), its
  std::vector<std::uint32_t> caps_;    //   first lens_[u] entries live
  std::vector<NodeId> targets_;
  std::size_t edge_count_ = 0;
  std::size_t dead_ = 0;  ///< targets_ slots no row owns.
};

}  // namespace agentnet
