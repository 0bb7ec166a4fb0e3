#include "net/graph.hpp"

#include <algorithm>
#include <cstdint>

namespace agentnet {

Graph::Graph(std::size_t node_count) { reset(node_count); }

void Graph::make_room(NodeId u, std::size_t need) {
  if (need <= caps_[u]) return;
  const std::size_t cap =
      std::max<std::size_t>(need + kRowSlack, 2 * std::size_t{caps_[u]});
  const std::size_t at = targets_.size();
  AGENTNET_REQUIRE(at + cap < static_cast<std::size_t>(UINT32_MAX),
                   "graph too large for u32 CSR offsets");
  targets_.resize(at + cap, kInvalidNode);
  std::copy_n(targets_.begin() + starts_[u], lens_[u], targets_.begin() + at);
  dead_ += caps_[u];
  starts_[u] = static_cast<std::uint32_t>(at);
  caps_[u] = static_cast<std::uint32_t>(cap);
  // Each move at least doubles a slot, so the slots a row has left behind
  // sum to less than its current one: dead slots never pass half the
  // array, and no compaction pass is needed.
  AGENTNET_ASSERT(2 * dead_ < targets_.size());
}

bool Graph::add_edge(NodeId u, NodeId v) {
  check_node(u);
  check_node(v);
  if (u == v) return false;
  const auto row = out_neighbors(u);
  const std::size_t k = static_cast<std::size_t>(
      std::lower_bound(row.begin(), row.end(), v) - row.begin());
  if (k < row.size() && row[k] == v) return false;
  make_room(u, row.size() + 1);  // may move the row: `row` is stale below
  NodeId* first = targets_.data() + starts_[u];
  std::copy_backward(first + k, first + lens_[u], first + lens_[u] + 1);
  first[k] = v;
  ++lens_[u];
  ++edge_count_;
  return true;
}

void Graph::add_undirected_edge(NodeId u, NodeId v) {
  add_edge(u, v);
  add_edge(v, u);
}

bool Graph::remove_edge(NodeId u, NodeId v) {
  check_node(u);
  check_node(v);
  const auto row = out_neighbors(u);
  const auto it = std::lower_bound(row.begin(), row.end(), v);
  if (it == row.end() || *it != v) return false;
  NodeId* first = targets_.data() + starts_[u];
  const std::size_t k = static_cast<std::size_t>(it - row.begin());
  std::copy(first + k + 1, first + lens_[u], first + k);
  --lens_[u];
  --edge_count_;
  return true;
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  check_node(v);
  const auto row = out_neighbors(u);
  return std::binary_search(row.begin(), row.end(), v);
}

std::size_t Graph::in_degree(NodeId u) const {
  check_node(u);
  std::size_t count = 0;
  for (NodeId w = 0; w < lens_.size(); ++w)
    if (has_edge(w, u)) ++count;
  return count;
}

std::vector<std::size_t> Graph::in_degrees() const {
  std::vector<std::size_t> out;
  in_degrees(out);
  return out;
}

void Graph::in_degrees(std::vector<std::size_t>& out) const {
  out.assign(lens_.size(), 0);
  for (NodeId u = 0; u < lens_.size(); ++u)
    for (NodeId v : out_neighbors(u)) ++out[v];
}

std::vector<Edge> Graph::edges() const {
  std::vector<Edge> out;
  out.reserve(edge_count_);
  for (NodeId u = 0; u < lens_.size(); ++u)
    for (NodeId v : out_neighbors(u)) out.push_back({u, v});
  return out;
}

void Graph::reset(std::size_t node_count) {
  starts_.assign(node_count, 0);
  lens_.assign(node_count, 0);
  caps_.assign(node_count, 0);
  targets_.clear();
  edge_count_ = 0;
  dead_ = 0;
}

void Graph::assign_out_edges(NodeId u,
                             std::span<const NodeId> sorted_neighbors) {
  check_node(u);
  make_room(u, sorted_neighbors.size());
  NodeId* first = targets_.data() + starts_[u];
  std::copy(sorted_neighbors.begin(), sorted_neighbors.end(), first);
  edge_count_ -= lens_[u];
  lens_[u] = static_cast<std::uint32_t>(sorted_neighbors.size());
  edge_count_ += lens_[u];
#ifndef NDEBUG
  for (std::size_t i = 0; i < lens_[u]; ++i) {
    AGENTNET_ASSERT_MSG(first[i] != u, "self-loop in assigned adjacency");
    AGENTNET_ASSERT_MSG(first[i] < lens_.size(), "neighbor out of range");
    AGENTNET_ASSERT_MSG(i == 0 || first[i - 1] < first[i],
                        "assigned adjacency must be strictly ascending");
  }
#endif
}

void Graph::transposed_into(Graph& out) const {
  AGENTNET_ASSERT(&out != this);
  const std::size_t n = lens_.size();
  // Counting pass: each reversed row's exact size fixes its start.
  out.caps_.assign(n, 0);
  for (NodeId u = 0; u < n; ++u)
    for (NodeId v : out_neighbors(u)) ++out.caps_[v];
  out.starts_.resize(n);
  std::uint32_t at = 0;
  for (NodeId v = 0; v < n; ++v) {
    out.starts_[v] = at;
    at += out.caps_[v];
  }
  // Append pass: sources are visited in ascending order, so every reversed
  // row comes out sorted.
  out.lens_.assign(n, 0);
  out.targets_.resize(edge_count_);
  for (NodeId u = 0; u < n; ++u)
    for (NodeId v : out_neighbors(u))
      out.targets_[out.starts_[v] + out.lens_[v]++] = u;
  out.edge_count_ = edge_count_;
  out.dead_ = 0;
}

bool operator==(const Graph& a, const Graph& b) {
  if (a.node_count() != b.node_count() || a.edge_count_ != b.edge_count_)
    return false;
  for (NodeId u = 0; u < a.node_count(); ++u) {
    const auto ra = a.out_neighbors(u);
    const auto rb = b.out_neighbors(u);
    if (!std::equal(ra.begin(), ra.end(), rb.begin(), rb.end())) return false;
  }
  return true;
}

bool same_layout(const Graph& a, const Graph& b) {
  return a == b && a.starts_ == b.starts_ && a.lens_ == b.lens_ &&
         a.caps_ == b.caps_ && a.targets_.size() == b.targets_.size();
}

void Graph::save_state(snapshot::ByteWriter& w) const {
  w.size(node_count());
  for (NodeId u = 0; u < node_count(); ++u) {
    const auto row = out_neighbors(u);
    w.size(row.size());
    for (NodeId v : row) w.scalar(v);
  }
}

void Graph::load_state(snapshot::ByteReader& r) {
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

}  // namespace agentnet
