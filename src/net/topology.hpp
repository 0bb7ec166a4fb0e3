// Builds the live link graph from node positions and effective radio ranges.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geom/spatial_grid.hpp"
#include "geom/vec2.hpp"
#include "net/graph.hpp"

namespace agentnet {

class ForkJoin;

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

  /// Rebuilds `graph` in place, recycling its storage (and the builder's
  /// grid + scratch) across steps. Each node's accepted
  /// neighbours are gathered, sorted once and written append-only — no
  /// per-edge insertion sort. Produces a Graph identical (operator==) to
  /// build()'s.
  ///
  /// Rows are gathered in blocks of kBuildBlockNodes nodes, in waves of
  /// default_threads() workers (AGENTNET_THREADS), each block into its own
  /// slot; after each wave the slots are assigned serially in
  /// node order, so the layout (starts, caps, slack) is the serial one at
  /// every thread count. A world of one block gathers on the calling
  /// thread. An over-range node throws the lowest such node's ConfigError.
  void build_into(Graph& graph, const std::vector<Vec2>& positions,
                  const std::vector<double>& ranges);

  /// Nodes per build_into() gather block.
  static constexpr std::size_t kBuildBlockNodes = 16384;
  /// Dirty rows an update_into() must gather before it fans out over
  /// UpdateOptions::team: below it one thread gathers them faster than a
  /// team round trip (docs/PERFORMANCE.md, "The run's team").
  static constexpr std::size_t kGatherGrain = 512;

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
  /// Returns true when the edge set actually changed. An over-range dirty
  /// node throws the first such node's ConfigError before anything is
  /// touched, so the builder and `graph` stay usable.
  ///
  /// Optional behaviours for update_into(); default-constructed options
  /// gather serially and report no rows.
  struct UpdateOptions {
    /// When set and more than kGatherGrain rows are dirty, dirty rows are
    /// gathered in parallel over this team (one pre-allocated slot per
    /// dirty index) and applied serially in index order — bit-identical to
    /// the serial gather because each row is a pure function of the
    /// (grid, positions, ranges) snapshot.
    ForkJoin* team = nullptr;
    /// When set, receives the sorted, deduplicated ids of every row whose
    /// stored adjacency this call modified: dirty rows that changed plus
    /// clean "halo" rows fixed up by mirror diffs / directed in-edge
    /// repair. World re-filters exactly these rows under link weather.
    std::vector<NodeId>* touched_rows = nullptr;
  };
  bool update_into(Graph& graph, std::span<const NodeId> dirty,
                   const std::vector<Vec2>& positions,
                   const std::vector<double>& ranges,
                   const UpdateOptions& options);

  /// Heap footprint of the grid and scratch (bytes/node accounting).
  std::size_t heap_bytes() const;

 private:
  /// Throws ConfigError if node u's effective range exceeds max_range.
  void require_in_range(NodeId u, const std::vector<double>& ranges) const;
  /// Appends u's accepted out-neighbours, sorted, to `out` at the grid's
  /// current snapshot.
  void append_row(NodeId u, const std::vector<Vec2>& positions,
                  const std::vector<double>& ranges,
                  std::vector<NodeId>& out) const;
  void gather_row_into(NodeId u, const std::vector<Vec2>& positions,
                       const std::vector<double>& ranges,
                       std::vector<NodeId>& out) const {
    out.clear();
    append_row(u, positions, ranges, out);
  }

  SpatialGrid grid_;
  LinkPolicy policy_;
  double max_range_;
  std::vector<NodeId> scratch_;  ///< One node's accepted neighbours.
  std::vector<NodeId> old_row_;  ///< A dirty row's edges before its patch.
  // update_into() scratch, reused across steps. dirty_mask_ is cleared by
  // walking the previous dirty set (not an O(n) refill), so steady-state
  // update cost tracks the dirty count, not the node count.
  std::vector<char> dirty_mask_;
  std::vector<NodeId> moved_;
  std::vector<std::pair<NodeId, NodeId>> pairs_;  ///< (source, dirty target).
  std::vector<std::vector<NodeId>> row_slots_;  ///< Parallel-gather slots.

  /// One build_into() block's rows, back to back, and their lengths.
  struct BlockSlot {
    std::vector<NodeId> targets;
    std::vector<std::uint32_t> lens;
  };
  /// Row entries per node a block slot reserves up front. Slots are
  /// reserved on the calling thread (worker-grown buffers stay in glibc's
  /// per-thread arenas); a denser block grows its slot on the worker.
  static constexpr std::size_t kSlotReserveDegree = 8;
  void gather_block(std::size_t block, const std::vector<Vec2>& positions,
                    const std::vector<double>& ranges, BlockSlot& slot) const;
  /// One per block of a wave; kept only after one-block builds.
  std::vector<BlockSlot> block_slots_;
};

}  // namespace agentnet
