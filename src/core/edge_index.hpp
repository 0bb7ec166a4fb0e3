// Dense ids for a network's directed arcs: the coordinates of agents'
// edge-knowledge sets (core/map_knowledge.hpp). A mapping run seeds one
// index from the world's graph, so a frozen world's arcs are numbered in
// row order and row u's ids are contiguous; a dynamic world
// registers a directed pair the first time an agent senses it. Ids are
// append-only — never reused or renumbered — so a set indexed by them stays
// valid while the index grows. Nothing a run reports depends on the id
// order, only on which pairs are known.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/dense_bitset.hpp"
#include "net/graph.hpp"
#include "snapshot/bytes.hpp"

namespace agentnet {

using EdgeId = std::uint32_t;

class EdgeIndex {
 public:
  struct Arc {
    NodeId target;
    EdgeId id;
  };
  /// find()'s answer for a pair that was never registered.
  static constexpr EdgeId kMiss = std::numeric_limits<EdgeId>::max();

  /// Registers every arc of `seed`, numbered in row order.
  explicit EdgeIndex(const Graph& seed);

  std::size_t node_count() const { return rows_.size(); }
  /// Registered arcs; every id is below this.
  std::size_t size() const { return size_; }

  /// Row u's registered arcs, ascending by target.
  std::span<const Arc> row(NodeId u) const {
    AGENTNET_ASSERT(u < rows_.size());
    return rows_[u];
  }
  /// The id of arc (u, v), or kMiss.
  EdgeId find(NodeId u, NodeId v) const;

  /// Registers (u, v) for every v in `sorted_targets` (strictly ascending)
  /// that row u lacks, appending new ids. Returns how many were new. Not
  /// safe to call while other threads read the index.
  std::size_t add_row(NodeId u, std::span<const NodeId> sorted_targets);

  /// Checkpoint encoding of an id-indexed set: a DenseBitset of n² bits
  /// holding bit u·n + v for each member arc (u, v). Snapshots keep this
  /// layout, so they do not depend on the order ids were handed out.
  void save_pairs(const DenseBitset& ids, snapshot::ByteWriter& w) const;
  /// Reads that encoding back as an id-indexed set, registering any pair
  /// the index lacks. Throws ConfigError, naming the byte offset, when the
  /// stored set is not n² bits.
  DenseBitset load_pairs(snapshot::ByteReader& r);

 private:
  EdgeId add(NodeId u, NodeId v);

  std::vector<std::vector<Arc>> rows_;
  std::size_t size_ = 0;
};

}  // namespace agentnet
