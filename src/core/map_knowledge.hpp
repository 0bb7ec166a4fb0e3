// An agent's model of the network topology: first-hand knowledge (edges
// the agent observed itself, nodes it visited) and the full map over both
// hands, which adds what peers passed on in direct communication. Movement
// policies differ in which they consult: conscientious agents use
// first-hand only, super-conscientious agents use both. Edge sets hold one
// bit per arc of the run's EdgeIndex (core/edge_index.hpp), not one per
// node pair; snapshots still use the node-pair layout.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/dense_bitset.hpp"
#include "core/edge_index.hpp"
#include "core/selection.hpp"
#include "net/graph.hpp"
#include "snapshot/bytes.hpp"

namespace agentnet {

class MapKnowledge;

/// A meeting's pooled knowledge: the union of the talkers' full maps and,
/// per node, the latest visit time any of them knows. Reused across
/// meetings, so its storage is allocated once.
class KnowledgePool {
 public:
  /// Starts a new meeting; the next add() overwrites the old contents.
  void clear() { visits_.clear(); }
  /// Pools one talker's full map (both hands) and visit times. Throws
  /// ConfigError when the talkers' maps use different edge indexes.
  void add(const MapKnowledge& member);

 private:
  friend class MapKnowledge;
  const EdgeIndex* index_ = nullptr;  // the first talker's
  DenseBitset edges_;
  std::vector<std::int64_t> visits_;  // empty until the first add()
  std::size_t visited_ = 0;           // nodes with a pooled visit time
};

class MapKnowledge {
 public:
  /// An empty map over `index`'s network. The store keeps a pointer to the
  /// index, which must outlive it; every store a map meets must share it.
  explicit MapKnowledge(const EdgeIndex& index);
  MapKnowledge(const EdgeIndex&& index) = delete;

  std::size_t node_count() const { return node_count_; }

  /// First-hand observation: the agent stands on `node` at time `now` and
  /// sees all of its out-edges, given ascending. Every arc must already be
  /// registered in the index.
  void observe_node(NodeId node, std::span<const NodeId> out_neighbors,
                    std::size_t now);

  /// Direct communication in a co-located group (see MappingTask): takes
  /// the meeting's pool as the full map. Precondition: the pool holds this
  /// agent's knowledge (add() was called with it), so merging it would
  /// yield the pool itself; only the O(1) count consequence is asserted.
  /// Under expiry the whole pool, this agent's own map included, counts
  /// as hearsay of the current epoch. Throws ConfigError (from add())
  /// when the talkers' maps use different edge indexes.
  void adopt(const KnowledgePool& pool);

  /// Resilience policy (fault subsystem): forgets second-hand knowledge
  /// older than `ttl` steps. Implemented as epoch rotation — hearsay
  /// survives the rotation that closes the epoch it was learned in and
  /// drops at the next one, so its effective age at expiry is in
  /// [ttl, 2·ttl). First-hand observations never expire. Call once per
  /// step with the current time; `ttl` 0 is a no-op, and the first call
  /// lazily allocates the epoch bookkeeping (fault-free agents pay no
  /// memory for this).
  void expire_second_hand(std::size_t now, std::size_t ttl);

  /// The agent's full (first ∪ second hand) edge set, indexed by edge id;
  /// used to pool group knowledge without exposing internals for mutation.
  const DenseBitset& combined_edges() const { return combined_; }
  /// Last-visit times over both hands, indexed by node.
  std::span<const std::int64_t> any_visits() const { return any_visit_; }

  bool knows_edge_first_hand(NodeId u, NodeId v) const;
  /// Either hand.
  bool knows_edge(NodeId u, NodeId v) const;

  std::size_t first_hand_edge_count() const { return first_hand_.count(); }
  /// Size of (first ∪ second) hand edge sets — the agent's full map.
  std::size_t known_edge_count() const { return combined_.count(); }

  /// |known ∩ truth| — for dynamic topologies where stale knowledge may
  /// reference edges that no longer exist.
  std::size_t known_edge_count_in(const Graph& truth) const;

  std::int64_t last_visit_first_hand(NodeId node) const;
  /// Includes visit times learned from peers (what super-conscientious
  /// movement consults).
  std::int64_t last_visit_any(NodeId node) const;

  /// Fraction of `truth_edge_count` edges known; truth must be the count of
  /// the graph the observations came from.
  double completeness(std::size_t truth_edge_count) const;

  /// Serialized size of this knowledge store if the agent migrated now:
  /// 8 bytes per known edge plus 12 per node with a known visit time. The
  /// paper cares about agent overhead ("due to cost of trans[portation an]
  /// agent should be small in size"); tasks meter migration traffic with
  /// this. O(1): the visited-node count is kept with the visit times.
  std::size_t serialized_size_bytes() const {
    return 8 * combined_.count() + 12 * visited_;
  }

  /// Checkpoint support: first-hand and combined sets, visit times and the
  /// expiry-epoch bookkeeping. Edge sets are written in the node-pair
  /// layout (EdgeIndex::save_pairs).
  void save_state(snapshot::ByteWriter& w) const;
  /// Restores a save_state stream, registering in `index` (this store's
  /// own) any arc it lacks. Throws ConfigError, naming the byte offset, on
  /// arrays of the wrong length, edge sets that are not n² bits, and
  /// first-hand knowledge outside the combined map.
  void load_state(snapshot::ByteReader& r, EdgeIndex& index);

 private:
  friend class KnowledgePool;
  void recount_visited();

  const EdgeIndex* index_;
  std::size_t node_count_;
  // Edge sets are indexed by EdgeId and grow with the index.
  DenseBitset first_hand_;
  DenseBitset combined_;  // first ∪ second hand, maintained incrementally
  std::vector<std::int64_t> first_hand_visit_;
  std::vector<std::int64_t> any_visit_;
  std::size_t visited_ = 0;  // entries of any_visit_ != kNeverVisited
  // Expiry epoch bookkeeping, allocated on the first expire_second_hand
  // call: hearsay learned in the current epoch, and learned-visit times
  // split by epoch so any_visit_ can be rebuilt at rotation.
  bool expiry_enabled_ = false;
  std::size_t last_rotation_ = 0;
  DenseBitset second_recent_;
  std::vector<std::int64_t> learned_visit_prev_;
  std::vector<std::int64_t> learned_visit_recent_;
};

}  // namespace agentnet
