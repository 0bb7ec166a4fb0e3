#include "core/map_knowledge.hpp"

#include <algorithm>
#include <string>

namespace agentnet {

void KnowledgePool::add(const MapKnowledge& member) {
  if (visits_.empty()) {
    // The first talker's map is the whole pool so far: copy it (the copy
    // reuses the storage of earlier meetings) instead of a counted merge.
    index_ = member.index_;
    edges_ = member.combined_;
    visits_ = member.any_visit_;
    visited_ = member.visited_;
    return;
  }
  AGENTNET_REQUIRE(member.index_ == index_,
                   "pooled knowledge built over different edge indexes");
  edges_.merge(member.combined_);
  const std::vector<std::int64_t>& visits = member.any_visit_;
  for (std::size_t i = 0; i < visits_.size(); ++i) {
    visited_ += visits_[i] == kNeverVisited && visits[i] != kNeverVisited;
    visits_[i] = std::max(visits_[i], visits[i]);
  }
}

MapKnowledge::MapKnowledge(const EdgeIndex& index)
    : index_(&index),
      node_count_(index.node_count()),
      first_hand_(index.size()),
      combined_(index.size()),
      first_hand_visit_(node_count_, kNeverVisited),
      any_visit_(node_count_, kNeverVisited) {
  AGENTNET_REQUIRE(node_count_ > 0, "knowledge needs >= 1 node");
}

void MapKnowledge::observe_node(NodeId node,
                                std::span<const NodeId> out_neighbors,
                                std::size_t now) {
  AGENTNET_ASSERT(node < node_count_);
  const auto t = static_cast<std::int64_t>(now);
  if (any_visit_[node] == kNeverVisited) ++visited_;
  first_hand_visit_[node] = std::max(first_hand_visit_[node], t);
  any_visit_[node] = std::max(any_visit_[node], t);
  first_hand_.grow(index_->size());
  combined_.grow(index_->size());
  // Both the live row and the index row ascend by target, so one forward
  // walk finds every neighbour's id.
  const auto row = index_->row(node);
  std::size_t k = 0;
  for (NodeId v : out_neighbors) {
    while (k < row.size() && row[k].target < v) ++k;
    AGENTNET_ASSERT_MSG(k < row.size() && row[k].target == v,
                        "sensed an arc the edge index lacks");
    first_hand_.set(row[k].id);
    combined_.set(row[k].id);
  }
}

void MapKnowledge::adopt(const KnowledgePool& pool) {
  AGENTNET_ASSERT(pool.index_ == index_ &&
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
    second_recent_ = DenseBitset(index_->size());
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
  AGENTNET_ASSERT(u < node_count_ && v < node_count_);
  const EdgeId id = index_->find(u, v);
  return id != EdgeIndex::kMiss && first_hand_.test(id);
}

bool MapKnowledge::knows_edge(NodeId u, NodeId v) const {
  AGENTNET_ASSERT(u < node_count_ && v < node_count_);
  const EdgeId id = index_->find(u, v);
  return id != EdgeIndex::kMiss && combined_.test(id);
}

std::size_t MapKnowledge::known_edge_count_in(const Graph& truth) const {
  const EdgeIndex& index = *index_;
  AGENTNET_REQUIRE(truth.node_count() == index.node_count(),
                   "truth graph node-count mismatch");
  std::size_t n = 0;
  for (NodeId u = 0; u < index.node_count(); ++u) {
    // Ascending rows on both sides: one merge walk per node. Arcs the
    // index never registered were never sensed, so they are unknown.
    const auto row = index.row(u);
    std::size_t k = 0;
    for (NodeId v : truth.out_neighbors(u)) {
      while (k < row.size() && row[k].target < v) ++k;
      if (k == row.size()) break;
      if (row[k].target == v && combined_.test(row[k].id)) ++n;
    }
  }
  return n;
}

void MapKnowledge::save_state(snapshot::ByteWriter& w) const {
  w.size(node_count_);
  index_->save_pairs(first_hand_, w);
  index_->save_pairs(combined_, w);
  w.pod_vec(first_hand_visit_);
  w.pod_vec(any_visit_);
  w.boolean(expiry_enabled_);
  w.size(last_rotation_);
  // Without expiry the epoch state is unallocated: an empty set.
  if (expiry_enabled_)
    index_->save_pairs(second_recent_, w);
  else
    DenseBitset().save_state(w);
  w.pod_vec(learned_visit_prev_);
  w.pod_vec(learned_visit_recent_);
}

void MapKnowledge::load_state(snapshot::ByteReader& r, EdgeIndex& index) {
  AGENTNET_REQUIRE(&index == index_,
                   "snapshot: knowledge loaded through a foreign edge index");
  const auto at = [](std::size_t pos) {
    return " at byte " + std::to_string(pos);
  };
  std::size_t pos = r.position();
  AGENTNET_REQUIRE(r.size() == node_count_,
                   "snapshot: map knowledge node count mismatch" + at(pos));
  // Visit arrays hold one time per node, or none while the epoch state is
  // unallocated.
  const auto visits = [&](std::vector<std::int64_t>& v, std::size_t want) {
    const std::size_t start = r.position();
    r.pod_vec(v);
    AGENTNET_REQUIRE(v.size() == want,
                     "snapshot: visit-time array of length " +
                         std::to_string(v.size()) + ", expected " +
                         std::to_string(want) + at(start));
  };
  first_hand_ = index.load_pairs(r);
  pos = r.position();
  combined_ = index.load_pairs(r);
  AGENTNET_REQUIRE(
      first_hand_.intersection_count(combined_) == first_hand_.count(),
      "snapshot: first-hand knowledge outside the combined map" + at(pos));
  visits(first_hand_visit_, node_count_);
  visits(any_visit_, node_count_);
  recount_visited();
  expiry_enabled_ = r.boolean();
  last_rotation_ = r.size();
  if (expiry_enabled_) {
    second_recent_ = index.load_pairs(r);
  } else {
    pos = r.position();
    second_recent_.load_state(r);
    AGENTNET_REQUIRE(second_recent_.size() == 0,
                     "snapshot: epoch edge set without expiry" + at(pos));
  }
  const std::size_t epoch_len = expiry_enabled_ ? node_count_ : 0;
  visits(learned_visit_prev_, epoch_len);
  visits(learned_visit_recent_, epoch_len);
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
