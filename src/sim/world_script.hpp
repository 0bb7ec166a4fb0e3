// A World's topology upkeep, recorded once and replayed by many worlds.
//
// A scenario world whose mobility is a recorded trace and whose batteries
// drain deterministically evolves identically in every replication: its
// link graph is a pure function of (scenario, step). WorldScript::record
// drives one such world through its steps on the live upkeep path
// and keeps, per step, the directed edge changes, the epoch bumps and the
// topology counters that advance() emitted. A World attached to the script
// (World::set_script) still steps mobility and batteries live but applies
// the recorded edge changes instead of scanning for dirty nodes and
// patching rows, and re-emits the recorded counters — bit-identical to the
// live world (docs/PERFORMANCE.md, "Shared world script").
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "net/graph.hpp"

namespace agentnet {

class World;

class WorldScript {
 public:
  /// What one live advance() did to the topology. The edge changes live
  /// in the script's shared arrays; each step records where its run ends.
  struct Step {
    std::uint32_t removed_end = 0;  ///< End of this step's removed_ range.
    std::uint32_t added_end = 0;    ///< End of this step's added_ range.
    bool epoch_bumped = false;
    bool state_bumped = false;
    // Topology counter increments (kTopoNodesDirty, kDerivedCacheHits,
    // kShardTilesDirty, kShardHaloRows).
    std::uint32_t nodes_dirty = 0;
    std::uint32_t cache_hits = 0;
    std::uint32_t tiles_dirty = 0;
    std::uint32_t halo_rows = 0;
  };

  WorldScript() = default;

  /// Drives `world` — geometric, at step 0, without link weather or a
  /// script of its own — through `steps` live advance() calls and records
  /// each. `after_step` (optional) runs after every advance, so callers can
  /// record per-step results derived from the world alongside. The world's
  /// counters, trace events and phase timings go to a private telemetry
  /// slot and are discarded: only the replays emit.
  static WorldScript record(
      World& world, std::size_t steps,
      const std::function<void(const World&)>& after_step = {});

  std::size_t steps() const { return steps_.size(); }
  std::size_t node_count() const { return node_count_; }
  const Step& step(std::size_t i) const { return steps_[i]; }
  /// Edges step `i` removed / added, in (from, to) lexicographic order.
  std::span<const Edge> removed(std::size_t i) const;
  std::span<const Edge> added(std::size_t i) const;
  /// Heap footprint of the recording.
  std::size_t memory_bytes() const;

 private:
  std::size_t node_count_ = 0;
  std::vector<Step> steps_;
  std::vector<Edge> removed_;
  std::vector<Edge> added_;
};

}  // namespace agentnet
