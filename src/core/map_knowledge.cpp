#include "core/map_knowledge.hpp"

#include <algorithm>

namespace agentnet {

void KnowledgePool::add(const MapKnowledge& member) {
  if (visits_.empty()) {
    // The first talker's map is the whole pool so far: copy it (the copy
    // reuses the storage of earlier meetings) instead of a counted merge.
    edges_ = member.combined_;
    visits_ = member.any_visit_;
    visited_ = member.visited_;
    return;
  }
  edges_.merge(member.combined_);  // throws on a node-count mismatch
  const std::vector<std::int64_t>& visits = member.any_visit_;
  for (std::size_t i = 0; i < visits_.size(); ++i) {
    visited_ += visits_[i] == kNeverVisited && visits[i] != kNeverVisited;
    visits_[i] = std::max(visits_[i], visits[i]);
  }
}

MapKnowledge::MapKnowledge(std::size_t node_count)
    : node_count_(node_count),
      first_hand_(node_count * node_count),
      combined_(node_count * node_count),
      first_hand_visit_(node_count, kNeverVisited),
      any_visit_(node_count, kNeverVisited) {
  AGENTNET_REQUIRE(node_count > 0, "knowledge needs >= 1 node");
}

void MapKnowledge::observe_node(NodeId node,
                                std::span<const NodeId> out_neighbors,
                                std::size_t now) {
  AGENTNET_ASSERT(node < node_count_);
  const auto t = static_cast<std::int64_t>(now);
  if (any_visit_[node] == kNeverVisited) ++visited_;
  first_hand_visit_[node] = std::max(first_hand_visit_[node], t);
  any_visit_[node] = std::max(any_visit_[node], t);
  for (NodeId v : out_neighbors) {
    const std::size_t bit = bit_index(node, v);
    first_hand_.set(bit);
    combined_.set(bit);
  }
}

void MapKnowledge::learn_from(const MapKnowledge& peer) {
  AGENTNET_REQUIRE(peer.node_count_ == node_count_,
                   "knowledge node-count mismatch");
  combined_.merge(peer.combined_);
  for (std::size_t i = 0; i < node_count_; ++i)
    any_visit_[i] = std::max(any_visit_[i], peer.any_visit_[i]);
  recount_visited();
  if (expiry_enabled_) {
    second_recent_.merge(peer.combined_);
    for (std::size_t i = 0; i < node_count_; ++i)
      learned_visit_recent_[i] =
          std::max(learned_visit_recent_[i], peer.any_visit_[i]);
  }
}

void MapKnowledge::adopt(const KnowledgePool& pool) {
  AGENTNET_ASSERT(pool.visits_.size() == node_count_ &&
                  pool.edges_.count() >= combined_.count() &&
                  pool.visited_ >= visited_);
  if (expiry_enabled_) {
    second_recent_.merge(pool.edges_);
    for (std::size_t i = 0; i < node_count_; ++i)
      learned_visit_recent_[i] =
          std::max(learned_visit_recent_[i], pool.visits_[i]);
  }
  combined_ = pool.edges_;
  any_visit_ = pool.visits_;
  visited_ = pool.visited_;
}

void MapKnowledge::expire_second_hand(std::size_t now, std::size_t ttl) {
  if (ttl == 0) return;
  if (!expiry_enabled_) {
    // Lazy activation: hearsay absorbed before this point belongs to an
    // epoch that is already ending, so it ages out at the first rotation.
    expiry_enabled_ = true;
    last_rotation_ = now;
    second_recent_ = DenseBitset(node_count_ * node_count_);
    learned_visit_prev_.assign(node_count_, kNeverVisited);
    learned_visit_recent_.assign(node_count_, kNeverVisited);
    return;
  }
  if (now < last_rotation_ + ttl) return;
  // Epoch rotation: the closing epoch's hearsay is all that survives of
  // the second hand; everything older is forgotten.
  combined_ = first_hand_;
  combined_.merge(second_recent_);
  second_recent_.clear();
  learned_visit_prev_ = learned_visit_recent_;
  std::fill(learned_visit_recent_.begin(), learned_visit_recent_.end(),
            kNeverVisited);
  for (std::size_t i = 0; i < node_count_; ++i)
    any_visit_[i] = std::max(first_hand_visit_[i], learned_visit_prev_[i]);
  recount_visited();
  last_rotation_ = now;
}

bool MapKnowledge::knows_edge_first_hand(NodeId u, NodeId v) const {
  return first_hand_.test(bit_index(u, v));
}

bool MapKnowledge::knows_edge(NodeId u, NodeId v) const {
  return combined_.test(bit_index(u, v));
}

namespace {

template <class AnyGraph>
std::size_t known_in(const MapKnowledge& k, const AnyGraph& truth) {
  AGENTNET_REQUIRE(truth.node_count() == k.node_count(),
                   "truth graph node-count mismatch");
  std::size_t n = 0;
  for (NodeId u = 0; u < k.node_count(); ++u)
    for (NodeId v : truth.out_neighbors(u))
      if (k.knows_edge(u, v)) ++n;
  return n;
}

}  // namespace

std::size_t MapKnowledge::known_edge_count_in(const Graph& truth) const {
  return known_in(*this, truth);
}

std::size_t MapKnowledge::known_edge_count_in(const CsrView& truth) const {
  return known_in(*this, truth);
}

std::int64_t MapKnowledge::last_visit_first_hand(NodeId node) const {
  AGENTNET_ASSERT(node < node_count_);
  return first_hand_visit_[node];
}

std::int64_t MapKnowledge::last_visit_any(NodeId node) const {
  AGENTNET_ASSERT(node < node_count_);
  return any_visit_[node];
}

void MapKnowledge::recount_visited() {
  visited_ = static_cast<std::size_t>(
      std::count_if(any_visit_.begin(), any_visit_.end(),
                    [](std::int64_t t) { return t != kNeverVisited; }));
}

double MapKnowledge::completeness(std::size_t truth_edge_count) const {
  if (truth_edge_count == 0) return 1.0;
  return static_cast<double>(known_edge_count()) /
         static_cast<double>(truth_edge_count);
}

}  // namespace agentnet
