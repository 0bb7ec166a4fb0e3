#include "net/topology.hpp"

#include <algorithm>
#include <string>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/fork_join.hpp"
#include "common/parallel_for.hpp"

namespace agentnet {

TopologyBuilder::TopologyBuilder(Aabb bounds, double max_range,
                                 LinkPolicy policy)
    : grid_(bounds, std::max(max_range, 1e-9)),
      policy_(policy),
      max_range_(max_range) {
  AGENTNET_REQUIRE(max_range > 0.0, "max_range must be > 0");
}

Graph TopologyBuilder::build(const std::vector<Vec2>& positions,
                             const std::vector<double>& ranges) {
  Graph graph;
  build_into(graph, positions, ranges);
  return graph;
}

// Inline: append_row runs it once per row of every build.
inline void TopologyBuilder::require_in_range(
    NodeId u, const std::vector<double>& ranges) const {
  AGENTNET_REQUIRE(ranges[u] <= max_range_ * (1.0 + 1e-12),
                   "effective range of node " + std::to_string(u) +
                       " exceeds builder max_range");
}

void TopologyBuilder::append_row(NodeId u, const std::vector<Vec2>& positions,
                                 const std::vector<double>& ranges,
                                 std::vector<NodeId>& out) const {
  require_in_range(u, ranges);
  // Query by this node's own reach; for symmetric policies the pair rule
  // is evaluated per candidate.
  const double query_radius =
      policy_ == LinkPolicy::kSymmetricOr ? max_range_ : ranges[u];
  const std::size_t first = out.size();
  grid_.for_each_within(positions[u], query_radius, [&](std::size_t v) {
    if (v == u) return;
    const double d2 = distance2(positions[u], positions[v]);
    const double ru2 = ranges[u] * ranges[u];
    const double rv2 = ranges[v] * ranges[v];
    switch (policy_) {
      case LinkPolicy::kDirected:
        if (d2 <= ru2) out.push_back(static_cast<NodeId>(v));
        break;
      case LinkPolicy::kSymmetricAnd:
        if (d2 <= ru2 && d2 <= rv2) out.push_back(static_cast<NodeId>(v));
        break;
      case LinkPolicy::kSymmetricOr:
        if (d2 <= ru2 || d2 <= rv2) out.push_back(static_cast<NodeId>(v));
        break;
    }
  });
  // One sort per node replaces a per-edge insertion sort; the accepted set
  // has no duplicates (each point lives in exactly one grid cell).
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end());
}

void TopologyBuilder::gather_block(std::size_t block,
                                   const std::vector<Vec2>& positions,
                                   const std::vector<double>& ranges,
                                   BlockSlot& slot) const {
  const std::size_t begin = block * kBuildBlockNodes;
  const std::size_t end = std::min(positions.size(), begin + kBuildBlockNodes);
  slot.targets.clear();
  slot.lens.clear();
  for (std::size_t u = begin; u < end; ++u) {
    const std::size_t before = slot.targets.size();
    append_row(static_cast<NodeId>(u), positions, ranges, slot.targets);
    slot.lens.push_back(
        static_cast<std::uint32_t>(slot.targets.size() - before));
  }
}

void TopologyBuilder::build_into(Graph& graph,
                                 const std::vector<Vec2>& positions,
                                 const std::vector<double>& ranges) {
  AGENTNET_REQUIRE(positions.size() == ranges.size(),
                   "positions/ranges size mismatch");
  const std::size_t n = positions.size();
  graph.reset(n);
  grid_.rebuild(positions);
  // Every row is a pure function of the (grid, positions, ranges) snapshot,
  // so blocks gather anywhere and commit in node order — the determinism
  // contract's execute-anywhere / combine-in-order split. Resolving the
  // worker count reads the environment, so one-block worlds skip it and a
  // warm rebuild stays allocation-free.
  const std::size_t blocks = (n + kBuildBlockNodes - 1) / kBuildBlockNodes;
  const std::size_t wave =
      blocks > 1 ? std::min(blocks, default_threads()) : 1;
  if (block_slots_.size() < wave) block_slots_.resize(wave);
  const std::size_t block_nodes = std::min(n, kBuildBlockNodes);
  for (std::size_t s = 0; s < wave; ++s) {
    block_slots_[s].lens.reserve(block_nodes);
    block_slots_[s].targets.reserve(block_nodes * kSlotReserveDegree);
  }
  for (std::size_t first = 0; first < blocks; first += wave) {
    // After the first wave, reserve the targets array for the whole build,
    // projected from that wave plus a quarter for rows that later outgrow
    // their slots. Growing it by doubling instead leaves freed copies of up
    // to half its size in the heap, which glibc may keep resident.
    if (first == wave)
      graph.reserve_targets(graph.targets_size() * n /
                            (first * kBuildBlockNodes) * 5 / 4);
    const std::size_t count = std::min(wave, blocks - first);
    parallel_for_claimed(
        count,
        [&](std::size_t s) {
          gather_block(first + s, positions, ranges, block_slots_[s]);
        },
        wave);
    for (std::size_t s = 0; s < count; ++s) {
      const BlockSlot& slot = block_slots_[s];
      auto u = static_cast<NodeId>((first + s) * kBuildBlockNodes);
      const NodeId* row = slot.targets.data();
      for (const std::uint32_t len : slot.lens) {
        graph.assign_out_edges(u++, {row, len});
        row += len;
      }
    }
  }
  // A multi-block build runs once per construction or restore, so its
  // wave of slots is freed rather than held for the world's lifetime;
  // a one-block slot is kept, so warm rebuilds stay allocation-free.
  if (blocks > 1) block_slots_ = {};
}

bool TopologyBuilder::update_into(Graph& graph, std::span<const NodeId> dirty,
                                  const std::vector<Vec2>& positions,
                                  const std::vector<double>& ranges,
                                  const UpdateOptions& options) {
  const std::size_t n = positions.size();
  AGENTNET_REQUIRE(positions.size() == ranges.size(),
                   "positions/ranges size mismatch");
  AGENTNET_REQUIRE(graph.node_count() == n && grid_.size() == n,
                   "update_into needs the previously built graph/grid");
  // Reject an over-range dirty node before the mask, the grid or the
  // graph change, so a builder that threw here stays usable. The first
  // such node in dirty order is named, as the gather below would.
  for (NodeId u : dirty) {
    AGENTNET_ASSERT(u < n);
    require_in_range(u, ranges);
  }
  bool changed = false;
  if (options.touched_rows) options.touched_rows->clear();
  if (dirty_mask_.size() < n) dirty_mask_.resize(n, 0);
  for (NodeId u : dirty) dirty_mask_[u] = 1;

  // In-edge candidates around each moved node's *old* position must be
  // collected before the grid forgets it. Only the directed policy needs
  // them: symmetric rows mirror their own diff below. Clean sources only —
  // a dirty source's whole row is recomputed anyway.
  moved_.clear();
  pairs_.clear();
  for (NodeId u : dirty) {
    const Vec2 old_pos = grid_.position(u);
    if (old_pos == positions[u]) continue;
    moved_.push_back(u);
    if (policy_ == LinkPolicy::kDirected) {
      grid_.for_each_within(old_pos, max_range_, [&](std::size_t v) {
        if (v != u && !dirty_mask_[v])
          pairs_.push_back({static_cast<NodeId>(v), u});
      });
    }
  }
  // Bring the grid to the new snapshot, then gather against it.
  for (NodeId u : moved_) grid_.move(u, positions[u]);

  // Above the grain, pre-gather every dirty row over the team: each index
  // writes its own slot and the grid/positions/ranges snapshot is frozen
  // for the whole phase, so the rows are bit-identical to a serial gather.
  // The apply loop below then runs serially in ascending dirty order —
  // the determinism contract's execute-anywhere / combine-in-order split
  // (docs/ARCHITECTURE.md).
  const bool pre_gather =
      options.team != nullptr && dirty.size() > kGatherGrain;
  if (pre_gather) {
    if (row_slots_.size() < dirty.size()) row_slots_.resize(dirty.size());
    options.team->run(dirty.size(), [&](std::size_t i) {
      gather_row_into(dirty[i], positions, ranges, row_slots_[i]);
    });
  }

  // (a) Out-rows of dirty nodes, exactly as a full build computes them.
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    const NodeId u = dirty[i];
    if (!pre_gather) gather_row_into(u, positions, ranges, scratch_);
    const std::vector<NodeId>& new_row = pre_gather ? row_slots_[i] : scratch_;
    const auto live_row = graph.out_neighbors(u);
    if (!std::equal(live_row.begin(), live_row.end(), new_row.begin(),
                    new_row.end())) {
      changed = true;
      if (options.touched_rows) options.touched_rows->push_back(u);
      if (policy_ != LinkPolicy::kDirected) {
        // Symmetric policies: out(u) == in(u), so the row diff tells every
        // *clean* neighbour whether its edge toward u appeared or vanished
        // (dirty neighbours recompute their own rows). Two-pointer walk
        // over the sorted old/new rows. The old row is copied first: a
        // neighbour row that outgrows its slot moves, and that reallocates
        // the storage live_row points into.
        old_row_.assign(live_row.begin(), live_row.end());
        const std::vector<NodeId>& old_row = old_row_;
        std::size_t a = 0, b = 0;
        while (a < old_row.size() || b < new_row.size()) {
          if (b == new_row.size() ||
              (a < old_row.size() && old_row[a] < new_row[b])) {
            if (!dirty_mask_[old_row[a]]) {
              graph.remove_edge(old_row[a], u);
              if (options.touched_rows)
                options.touched_rows->push_back(old_row[a]);
            }
            ++a;
          } else if (a == old_row.size() || new_row[b] < old_row[a]) {
            if (!dirty_mask_[new_row[b]]) {
              graph.add_edge(new_row[b], u);
              if (options.touched_rows)
                options.touched_rows->push_back(new_row[b]);
            }
            ++b;
          } else {
            ++a;
            ++b;
          }
        }
      }
      graph.assign_out_edges(u, new_row);
    }
  }

  // (b) Directed in-edges toward moved nodes: candidates from the new
  // neighbourhood join the old-position ones collected above. Applying an
  // edge toward its already-correct state is a no-op, so duplicate
  // candidates (and pairs visited from both positions) are harmless.
  if (policy_ == LinkPolicy::kDirected) {
    for (NodeId u : moved_) {
      grid_.for_each_within(positions[u], max_range_, [&](std::size_t v) {
        if (v != u && !dirty_mask_[v])
          pairs_.push_back({static_cast<NodeId>(v), u});
      });
    }
    for (const auto& [v, u] : pairs_) {
      const bool want = distance2(positions[v], positions[u]) <=
                        ranges[v] * ranges[v];
      const bool applied =
          want ? graph.add_edge(v, u) : graph.remove_edge(v, u);
      changed |= applied;
      if (applied && options.touched_rows) options.touched_rows->push_back(v);
    }
  }
  // Clear only the bits this call set — O(|dirty|), not O(n).
  for (NodeId u : dirty) dirty_mask_[u] = 0;
  if (options.touched_rows) {
    std::sort(options.touched_rows->begin(), options.touched_rows->end());
    options.touched_rows->erase(
        std::unique(options.touched_rows->begin(),
                    options.touched_rows->end()),
        options.touched_rows->end());
  }
  return changed;
}

std::size_t TopologyBuilder::heap_bytes() const {
  std::size_t bytes = grid_.heap_bytes() +
                      scratch_.capacity() * sizeof(NodeId) +
                      old_row_.capacity() * sizeof(NodeId) +
                      dirty_mask_.capacity() +
                      moved_.capacity() * sizeof(NodeId) +
                      pairs_.capacity() * sizeof(pairs_[0]) +
                      row_slots_.capacity() * sizeof(row_slots_[0]) +
                      block_slots_.capacity() * sizeof(block_slots_[0]);
  for (const auto& slot : row_slots_)
    bytes += slot.capacity() * sizeof(NodeId);
  for (const auto& slot : block_slots_)
    bytes += slot.targets.capacity() * sizeof(NodeId) +
             slot.lens.capacity() * sizeof(std::uint32_t);
  return bytes;
}

}  // namespace agentnet
