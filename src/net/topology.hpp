// Builds the live link graph from node positions and effective radio ranges.
#pragma once

#include <span>
#include <vector>

#include "geom/spatial_grid.hpp"
#include "geom/vec2.hpp"
#include "net/graph.hpp"

namespace agentnet {

class ThreadPool;

/// How a one-way radio reach (u hears within range(u)) becomes a link.
enum class LinkPolicy {
  kDirected,      ///< u→v iff dist ≤ range(u). The mapping environment.
  kSymmetricAnd,  ///< {u,v} iff dist ≤ min(range(u), range(v)). Routing env:
                  ///< a usable data link needs both directions.
  kSymmetricOr,   ///< {u,v} iff dist ≤ max(range(u), range(v)).
};

/// Rebuilds graphs from (positions, effective ranges). Stateless apart from
/// a reusable spatial grid (sized for the largest range it will see) and
/// per-node scratch, so build_into() on a warm builder allocates nothing.
///
/// The grid doubles as the builder's memory of the last snapshot it built:
/// update_into() patches a previously built graph by recomputing only the
/// rows touched by a dirty set, relocating the dirty points inside the grid
/// instead of rebuilding it. Outputs are bit-identical to a full rebuild
/// (docs/PERFORMANCE.md, "Topology upkeep").
class TopologyBuilder {
 public:
  /// `max_range` bounds every effective range passed to build(); used only
  /// to size the grid cells.
  TopologyBuilder(Aabb bounds, double max_range, LinkPolicy policy);

  LinkPolicy policy() const { return policy_; }

  /// Computes the link graph for the given snapshot. `ranges[i]` is node
  /// i's current effective radio range. Thin wrapper over build_into().
  Graph build(const std::vector<Vec2>& positions,
              const std::vector<double>& ranges);

  /// Rebuilds `graph` in place, recycling its adjacency capacity (and the
  /// builder's grid + scratch) across steps. Each node's accepted
  /// neighbours are gathered, sorted once and written append-only — no
  /// per-edge insertion sort. Produces a Graph identical (operator==) to
  /// build()'s.
  void build_into(Graph& graph, const std::vector<Vec2>& positions,
                  const std::vector<double>& ranges);

  /// Incrementally patches `graph` — which must hold this builder's last
  /// build for the grid's current snapshot — to the new (positions, ranges)
  /// snapshot, given the sorted set of nodes whose position or range
  /// changed (`dirty`). Every clean node's inputs must be unchanged.
  ///
  /// Recomputes (a) the out-rows of dirty nodes and (b) in-edges toward
  /// dirty nodes: symmetric policies mirror the out-row diff into clean
  /// neighbours' rows; the directed policy fixes in-edges from candidates
  /// found by reverse grid queries over the max-range neighbourhoods of
  /// each moved node's old and new position. The result is bit-identical
  /// (operator==, neighbour iteration order included) to a full rebuild.
  ///
  /// Returns true when the edge set actually changed.
  ///
  /// Optional behaviours for update_into(); default-constructed options
  /// gather serially and report no rows.
  struct UpdateOptions {
    /// When set, dirty rows are gathered in parallel over this pool (one
    /// pre-allocated slot per dirty index) and applied serially in index
    /// order — bit-identical to the serial gather because each row is a
    /// pure function of the (grid, positions, ranges) snapshot.
    ThreadPool* pool = nullptr;
    /// When set, receives the sorted, deduplicated ids of every row whose
    /// stored adjacency this call modified: dirty rows that changed plus
    /// clean "halo" rows fixed up by mirror diffs / directed in-edge
    /// repair. World patches exactly these CSR rows.
    std::vector<NodeId>* touched_rows = nullptr;
  };
  bool update_into(Graph& graph, std::span<const NodeId> dirty,
                   const std::vector<Vec2>& positions,
                   const std::vector<double>& ranges,
                   const UpdateOptions& options);

  /// Heap footprint of the grid and scratch (bytes/node accounting).
  std::size_t heap_bytes() const;

 private:
  /// Fills `out` (sorted) with u's accepted out-neighbours at the grid's
  /// current snapshot.
  void gather_row_into(NodeId u, const std::vector<Vec2>& positions,
                       const std::vector<double>& ranges,
                       std::vector<NodeId>& out) const;
  void gather_row(NodeId u, const std::vector<Vec2>& positions,
                  const std::vector<double>& ranges) {
    gather_row_into(u, positions, ranges, scratch_);
  }

  SpatialGrid grid_;
  LinkPolicy policy_;
  double max_range_;
  std::vector<NodeId> scratch_;  ///< One node's accepted neighbours.
  // update_into() scratch, reused across steps. dirty_mask_ is cleared by
  // walking the previous dirty set (not an O(n) refill), so steady-state
  // update cost tracks the dirty count, not the node count.
  std::vector<char> dirty_mask_;
  std::vector<NodeId> moved_;
  std::vector<std::pair<NodeId, NodeId>> pairs_;  ///< (source, dirty target).
  std::vector<std::vector<NodeId>> row_slots_;  ///< Parallel-gather slots.
};

}  // namespace agentnet
