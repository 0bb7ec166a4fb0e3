// The simulated wireless world: node positions driven by a mobility model,
// batteries draining, radio ranges scaling with charge, and the live link
// graph maintained from the current snapshot each step.
//
// Agents (src/core) observe the World read-only; all agent interaction with
// the environment goes through node-local state (routing tables, stigmergy
// boards) owned by the task layer, matching the paper's "the nodes
// themselves run no programs".
//
// Topology upkeep has one path (docs/PERFORMANCE.md, "Topology upkeep").
// Only nodes that can move or discharge can ever dirty the graph; they live
// in spatial tiles with SoA built state (sim/shard.hpp). Each advance()
// scans those tiles for nodes whose position or quantized range changed
// and patches exactly the affected rows of the one graph (a padded CSR) in
// place; many dirty rows are gathered over a fork-join team. The result
// equals a full rebuild from the current snapshot at any thread count; the
// tests hold that full rebuild as their oracle. epoch() counts the steps
// where the edge set actually changed, so derived-state consumers can
// memoise on it.
//
// A world attached to a WorldScript (sim/world_script.hpp) replays a
// recorded run's topology instead: mobility and batteries still step live,
// but each advance() applies the recorded edge changes and re-emits the
// recorded counters (docs/PERFORMANCE.md, "Shared world script").
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/fork_join.hpp"
#include "energy/battery.hpp"
#include "geom/vec2.hpp"
#include "mobility/mobility.hpp"
#include "net/generators.hpp"
#include "net/graph.hpp"
#include "net/link_noise.hpp"
#include "net/topology.hpp"
#include "radio/range_model.hpp"
#include "sim/shard.hpp"
#include "sim/world_script.hpp"

namespace agentnet {

class World {
 public:
  /// Fully general constructor; see the factory helpers below for the two
  /// paper scenarios.
  World(Aabb bounds, std::vector<Vec2> initial_positions,
        RadioModel radio, BatteryBank batteries,
        std::unique_ptr<MobilityModel> mobility, LinkPolicy policy);

  /// A frozen snapshot world: stationary nodes, mains power. Used by the
  /// mapping scenario (and tests) — the graph never changes.
  static World frozen(const GeneratedNetwork& net);

  /// A world pinned to an explicit abstract graph (no geometry): the graph
  /// is never rebuilt, advance() only ticks the clock. For running agents
  /// on non-geometric topologies (Erdős–Rényi, preferential attachment).
  /// Link flappers are not supported on fixed worlds.
  static World fixed(Graph graph);

  /// Advances one simulation step: mobility, battery drain, link upkeep.
  /// When nothing is dirty (static world, pure clock tick) the topology —
  /// graph and epoch — is left untouched, so downstream caches stay warm.
  void advance();

  std::size_t node_count() const { return positions_.size(); }
  std::size_t step() const { return step_; }
  /// The live link graph: link weather applied when a flapper is active,
  /// the pure geometric topology otherwise.
  const Graph& graph() const {
    return weather_active_ ? flapped_ : geo_graph_;
  }
  /// Monotonic edge-set version of graph(): bumped exactly when an
  /// advance() (or reconfiguration) changed some edge. Derived-state
  /// consumers memoise on it — equal epochs guarantee an identical graph.
  std::uint64_t epoch() const { return epoch_; }
  /// Monotonic version of the node state feeding the topology (positions /
  /// effective ranges): bumped when any node moved or changed range, even
  /// if the edge set survived. Position-dependent consumers (blackout
  /// coverage) key on this in addition to epoch().
  std::uint64_t state_epoch() const { return state_epoch_; }
  /// True when the graph is derived from node geometry (positions/ranges).
  /// fixed() worlds pin an abstract graph over synthetic geometry, so
  /// geometric shortcuts (edge ⇒ within radio range) do not hold there.
  bool geometric() const { return !fixed_topology_; }
  const std::vector<Vec2>& positions() const { return positions_; }
  const RadioModel& radio() const { return radio_; }
  const BatteryBank& batteries() const { return batteries_; }
  const MobilityModel& mobility() const { return *mobility_; }
  Aabb bounds() const { return bounds_; }
  LinkPolicy link_policy() const { return builder_.policy(); }

  double effective_range(NodeId node) const {
    return radio_.effective_range(node, batteries_.fraction(node));
  }

  /// The fork-join team the dirty-row gather fans over once the dirty
  /// rows exceed a fixed grain; null (the default) is the exact serial
  /// path. Every team is bit-identical — threads only redistribute row
  /// gathering. A task passes its run's agent team (AgentParallel::team),
  /// so upkeep and agent phases share one set of threads; the team runs
  /// one job at a time, so the world must advance on the thread that
  /// dispatches the team's other jobs.
  void set_team(std::shared_ptr<ForkJoin> team) { team_ = std::move(team); }
  /// Gives the world a team of its own of `threads` (0 resolves
  /// AGENTNET_THREADS / hardware concurrency; 1 is serial). A team of the
  /// same size is kept.
  void set_shard_threads(std::size_t threads);

  /// Approximate heap footprint of the world's live structures — node
  /// state, graphs, builder grid, shard tiles. The scale benches
  /// report this as bytes/node; O(n) walk, not for hot paths.
  std::size_t memory_bytes() const;

  /// Installs (or clears) link weather: down links are removed from the
  /// graph() view (the geometric topology is kept separately so upkeep
  /// can patch it). Takes effect immediately.
  void set_link_flapper(std::optional<LinkFlapper> flapper);
  const std::optional<LinkFlapper>& link_flapper() const { return flapper_; }

  /// Attaches a recorded run of this world (WorldScript::record on an
  /// identical world, same env knobs): from now on advance() replays the
  /// script's step for the current clock instead of running topology
  /// upkeep. The script is caller-owned, immutable and may be shared by
  /// any number of worlds. nullptr — or advancing past the script's end —
  /// returns to live upkeep; so does set_link_flapper.
  void set_script(const WorldScript* script);
  const WorldScript* script() const { return script_; }

  /// Checkpoint support. Serializes the evolving state (positions, clock,
  /// batteries, mobility, epoch counters); load_state rebuilds the derived
  /// topology — ranges, geometric graph, weather view, shard tiles —
  /// from the restored snapshot, which reproduces it bit-for-bit because it
  /// is a pure function of that state. Call on a world constructed from the
  /// same config (same node count, policy, flapper and env knobs).
  void save_state(snapshot::ByteWriter& w) const;
  void load_state(snapshot::ByteReader& r);

 private:
  /// Shard tile edge as a multiple of the largest base radio range.
  static constexpr double kShardTileFactor = 4.0;

  /// Quantized effective range: AGENTNET_TOPO_RANGE_QUANTUM > 0 coarsens
  /// ranges to multiples of the quantum (fewer range-dirty nodes per step);
  /// the default 0 is the exact identity.
  double quantized_range(NodeId node) const;
  /// The live advance() tail: tile scan, row gather, graph row patching.
  void refresh_topology();
  /// Refreshes the weather view and epoch after the geometric graph may
  /// have changed at the rows listed in touched_rows_.
  void refresh_effective(bool geo_changed);
  /// The replaying advance() tail: applies the script's edge changes for
  /// the step just taken, bumps the epochs and re-emits its counters.
  void replay_topology();
  /// Rebuilds every derived structure (ranges, builder grid, graphs, shard
  /// tiles) from the current node state.
  void rebuild_derived();
  /// Re-draws the whole weather view from geo_graph_ for the current
  /// window, rewriting only the rows that differ, and refreshes the
  /// per-row drop counts. Returns whether the view changed.
  bool redraw_weather();
  /// Re-filters u's weather row from geo_graph_, rewriting it when it
  /// differs (returns true then), and updates the drop counts.
  bool refilter_row(NodeId u);

  Aabb bounds_;
  std::vector<Vec2> positions_;
  RadioModel radio_;
  BatteryBank batteries_;
  std::unique_ptr<MobilityModel> mobility_;
  TopologyBuilder builder_;
  // Pure geometric topology (no weather), patched in place every step.
  Graph geo_graph_;
  // Weather view of geo_graph_, held only while a flapper is active.
  Graph flapped_;
  std::vector<double> ranges_;  ///< Quantized ranges as of the last build.
  std::vector<NodeId> maybe_dirty_;  ///< Nodes that can ever become dirty.
  std::vector<NodeId> flap_scratch_;
  std::optional<LinkFlapper> flapper_;
  bool weather_active_ = false;
  std::uint64_t flap_window_ = 0;
  std::size_t flap_drops_ = 0;  ///< Drops in the current weather view.
  // Shard tiles are derived state: checkpoints never serialize them,
  // load_state rebuilds them. Null only on fixed() worlds.
  std::unique_ptr<WorldShards> shards_;
  std::shared_ptr<ForkJoin> team_;  ///< Null: serial upkeep.
  std::vector<NodeId> touched_rows_;  ///< update_into() modified-row output.
  std::vector<std::uint32_t> flap_row_drops_;  ///< Weather drops per row.
  double quantum_ = 0.0;
  std::uint64_t epoch_ = 0;
  std::uint64_t state_epoch_ = 0;
  bool fixed_topology_ = false;
  std::size_t step_ = 0;
  const WorldScript* script_ = nullptr;
};

}  // namespace agentnet
