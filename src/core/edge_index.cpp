#include "core/edge_index.hpp"

#include <algorithm>
#include <string>

namespace agentnet {

EdgeIndex::EdgeIndex(const Graph& seed) : rows_(seed.node_count()) {
  for (NodeId u = 0; u < rows_.size(); ++u) {
    const auto targets = seed.out_neighbors(u);
    rows_[u].reserve(targets.size());
    add_row(u, targets);
  }
}

EdgeId EdgeIndex::find(NodeId u, NodeId v) const {
  const auto r = row(u);
  const auto it = std::lower_bound(
      r.begin(), r.end(), v,
      [](const Arc& arc, NodeId target) { return arc.target < target; });
  return it != r.end() && it->target == v ? it->id : kMiss;
}

std::size_t EdgeIndex::add_row(NodeId u,
                               std::span<const NodeId> sorted_targets) {
  AGENTNET_ASSERT(u < rows_.size());
  std::vector<Arc>& r = rows_[u];
  const std::size_t before = size_;
  std::size_t k = 0;
  for (NodeId v : sorted_targets) {
    AGENTNET_ASSERT(v < rows_.size());
    while (k < r.size() && r[k].target < v) ++k;
    if (k < r.size() && r[k].target == v) continue;
    AGENTNET_REQUIRE(size_ < kMiss, "edge index full");
    r.insert(r.begin() + static_cast<std::ptrdiff_t>(k),
             Arc{v, static_cast<EdgeId>(size_++)});
  }
  return size_ - before;
}

EdgeId EdgeIndex::add(NodeId u, NodeId v) {
  const EdgeId id = find(u, v);
  if (id != kMiss) return id;
  add_row(u, std::span<const NodeId>(&v, 1));
  return static_cast<EdgeId>(size_ - 1);
}

void EdgeIndex::save_pairs(const DenseBitset& ids,
                           snapshot::ByteWriter& w) const {
  const std::size_t n = node_count();
  DenseBitset pairs(n * n);
  for (NodeId u = 0; u < n; ++u)
    for (const Arc& arc : rows_[u])
      if (ids.test(arc.id)) pairs.set(u * n + arc.target);
  pairs.save_state(w);
}

DenseBitset EdgeIndex::load_pairs(snapshot::ByteReader& r) {
  const std::size_t n = node_count();
  const std::size_t at = r.position();
  DenseBitset pairs;
  pairs.load_state(r);
  AGENTNET_REQUIRE(pairs.size() == n * n,
                   "snapshot: edge set of " + std::to_string(pairs.size()) +
                       " bits, expected " + std::to_string(n * n) +
                       " at byte " + std::to_string(at));
  std::vector<EdgeId> members;
  members.reserve(pairs.count());
  pairs.for_each([&](std::size_t bit) {
    members.push_back(add(static_cast<NodeId>(bit / n),
                          static_cast<NodeId>(bit % n)));
  });
  DenseBitset ids(size_);
  for (EdgeId id : members) ids.set(id);
  return ids;
}

}  // namespace agentnet
