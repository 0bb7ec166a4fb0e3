// The node-pair oracle for MapKnowledge (docs/PERFORMANCE.md, "Edge-indexed
// knowledge").
//
// MapKnowledge indexes its edge sets by EdgeId. PairMapKnowledge is the
// layout it replaced: one bit per ordered node pair, bit u·n + v, with the
// same first-hand/combined split, visit times and epoch expiry. Its
// save_state bytes are the snapshot format, so the equivalence suite can
// compare counts, edge queries, visit times, sizes and checkpoint bytes
// after every operation.
//
// meet() is the pairwise merge for tests: one agent adopts the pool of
// itself and one peer, the only merge the mapping task has (KnowledgePool
// + adopt()), over either layout.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/dense_bitset.hpp"
#include "core/map_knowledge.hpp"
#include "core/mapping_agent.hpp"
#include "core/selection.hpp"
#include "net/graph.hpp"
#include "snapshot/bytes.hpp"

namespace agentnet {

class PairMapKnowledge;

/// A meeting's pooled knowledge over node pairs (KnowledgePool's oracle).
class PairKnowledgePool {
 public:
  void clear() { visits_.clear(); }
  inline void add(const PairMapKnowledge& member);

 private:
  friend class PairMapKnowledge;
  DenseBitset edges_;
  std::vector<std::int64_t> visits_;
  std::size_t visited_ = 0;
};

class PairMapKnowledge {
 public:
  explicit PairMapKnowledge(std::size_t n)
      : n_(n),
        first_hand_(n * n),
        combined_(n * n),
        first_hand_visit_(n, kNeverVisited),
        any_visit_(n, kNeverVisited) {}

  void observe_node(NodeId node, std::span<const NodeId> out,
                    std::size_t now) {
    const auto t = static_cast<std::int64_t>(now);
    if (any_visit_[node] == kNeverVisited) ++visited_;
    first_hand_visit_[node] = std::max(first_hand_visit_[node], t);
    any_visit_[node] = std::max(any_visit_[node], t);
    for (NodeId v : out) {
      first_hand_.set(bit(node, v));
      combined_.set(bit(node, v));
    }
  }

  void adopt(const PairKnowledgePool& pool) {
    if (expiry_enabled_) {
      second_recent_.merge(pool.edges_);
      for (std::size_t i = 0; i < n_; ++i)
        learned_visit_recent_[i] =
            std::max(learned_visit_recent_[i], pool.visits_[i]);
    }
    combined_ = pool.edges_;
    any_visit_ = pool.visits_;
    visited_ = pool.visited_;
  }

  void expire_second_hand(std::size_t now, std::size_t ttl) {
    if (ttl == 0) return;
    if (!expiry_enabled_) {
      expiry_enabled_ = true;
      last_rotation_ = now;
      second_recent_ = DenseBitset(n_ * n_);
      learned_visit_prev_.assign(n_, kNeverVisited);
      learned_visit_recent_.assign(n_, kNeverVisited);
      return;
    }
    if (now < last_rotation_ + ttl) return;
    combined_ = first_hand_;
    combined_.merge(second_recent_);
    second_recent_.clear();
    learned_visit_prev_ = learned_visit_recent_;
    std::fill(learned_visit_recent_.begin(), learned_visit_recent_.end(),
              kNeverVisited);
    for (std::size_t i = 0; i < n_; ++i)
      any_visit_[i] = std::max(first_hand_visit_[i], learned_visit_prev_[i]);
    recount_visited();
    last_rotation_ = now;
  }

  bool knows_edge_first_hand(NodeId u, NodeId v) const {
    return first_hand_.test(bit(u, v));
  }
  bool knows_edge(NodeId u, NodeId v) const {
    return combined_.test(bit(u, v));
  }
  std::size_t first_hand_edge_count() const { return first_hand_.count(); }
  std::size_t known_edge_count() const { return combined_.count(); }
  std::size_t known_edge_count_in(const Graph& truth) const {
    std::size_t count = 0;
    for (NodeId u = 0; u < n_; ++u)
      for (NodeId v : truth.out_neighbors(u))
        if (knows_edge(u, v)) ++count;
    return count;
  }
  std::int64_t last_visit_first_hand(NodeId v) const {
    return first_hand_visit_[v];
  }
  std::int64_t last_visit_any(NodeId v) const { return any_visit_[v]; }
  std::size_t serialized_size_bytes() const {
    return 8 * combined_.count() + 12 * visited_;
  }

  void save_state(snapshot::ByteWriter& w) const {
    w.size(n_);
    first_hand_.save_state(w);
    combined_.save_state(w);
    w.pod_vec(first_hand_visit_);
    w.pod_vec(any_visit_);
    w.boolean(expiry_enabled_);
    w.size(last_rotation_);
    second_recent_.save_state(w);
    w.pod_vec(learned_visit_prev_);
    w.pod_vec(learned_visit_recent_);
  }

 private:
  friend class PairKnowledgePool;
  std::size_t bit(NodeId u, NodeId v) const {
    return static_cast<std::size_t>(u) * n_ + v;
  }
  void recount_visited() {
    visited_ = static_cast<std::size_t>(
        std::count_if(any_visit_.begin(), any_visit_.end(),
                      [](std::int64_t t) { return t != kNeverVisited; }));
  }

  std::size_t n_;
  DenseBitset first_hand_;
  DenseBitset combined_;
  std::vector<std::int64_t> first_hand_visit_;
  std::vector<std::int64_t> any_visit_;
  std::size_t visited_ = 0;
  bool expiry_enabled_ = false;
  std::size_t last_rotation_ = 0;
  DenseBitset second_recent_;
  std::vector<std::int64_t> learned_visit_prev_;
  std::vector<std::int64_t> learned_visit_recent_;
};

void PairKnowledgePool::add(const PairMapKnowledge& member) {
  if (visits_.empty()) {
    edges_ = member.combined_;
    visits_ = member.any_visit_;
    visited_ = member.visited_;
    return;
  }
  edges_.merge(member.combined_);
  for (std::size_t i = 0; i < visits_.size(); ++i) {
    visited_ += visits_[i] == kNeverVisited &&
                member.any_visit_[i] != kNeverVisited;
    visits_[i] = std::max(visits_[i], member.any_visit_[i]);
  }
}

/// `agent` adopts the pool of itself and `peer` (the task's meeting of two).
inline void meet(MapKnowledge& agent, const MapKnowledge& peer) {
  KnowledgePool pool;
  pool.add(agent);
  pool.add(peer);
  agent.adopt(pool);
}

inline void meet(MappingAgent& agent, const MappingAgent& peer) {
  KnowledgePool pool;
  pool.add(agent.knowledge());
  pool.add(peer.knowledge());
  agent.adopt(pool);
}

inline void meet(PairMapKnowledge& agent, const PairMapKnowledge& peer) {
  PairKnowledgePool pool;
  pool.add(agent);
  pool.add(peer);
  agent.adopt(pool);
}

}  // namespace agentnet
