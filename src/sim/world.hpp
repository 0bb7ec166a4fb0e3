// The simulated wireless world: node positions driven by a mobility model,
// batteries draining, radio ranges scaling with charge, and the live link
// graph maintained from the current snapshot each step.
//
// Agents (src/core) observe the World read-only; all agent interaction with
// the environment goes through node-local state (routing tables, stigmergy
// boards) owned by the task layer, matching the paper's "the nodes
// themselves run no programs".
//
// Topology maintenance is incremental by default: advance() collects the
// dirty set (nodes whose position or quantized range changed — stationary,
// mains-powered nodes are clean forever) and patches only the affected
// rows; set AGENTNET_TOPO_INCREMENTAL=0 for the full per-step rebuild.
// Both paths produce bit-identical graphs; epoch() counts the steps where
// the edge set actually changed, so derived-state consumers can memoise on
// it (docs/PERFORMANCE.md, "Incremental topology maintenance").
//
// At scale (AGENTNET_TOPO_SHARD, auto-on from AGENTNET_TOPO_SHARD_MIN_NODES
// nodes) upkeep additionally runs *sharded*: the maybe-dirty set lives in
// spatial tiles with SoA built state (sim/shard.hpp), the dirty scan is
// tile-local and can fan out over a thread pool, and the frozen CSR is
// patched row-by-row instead of refrozen wholesale. Sharded advance() is
// bit-identical to the flat path at any thread count — same graphs, same
// epochs, same checkpoint bytes (docs/PERFORMANCE.md, "Sharded world").
//
// A world attached to a WorldScript (sim/world_script.hpp) replays a
// recorded run's topology instead: mobility and batteries still step live,
// but each advance() applies the recorded edge changes and re-emits the
// recorded counters (docs/PERFORMANCE.md, "Shared world script").
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

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
  /// graph, CSR snapshot, epoch — is left untouched, so downstream caches
  /// stay warm.
  void advance();

  std::size_t node_count() const { return positions_.size(); }
  std::size_t step() const { return step_; }
  /// The live link graph: link weather applied when a flapper is active,
  /// the pure geometric topology otherwise.
  const Graph& graph() const {
    return weather_active_ ? flapped_ : geo_graph_;
  }
  /// Frozen CSR snapshot of graph(), refreshed only when the edge set
  /// changes. Read-heavy per-step consumers (connectivity walks, coverage
  /// measurement) iterate this; results are bit-identical to iterating
  /// graph().
  const CsrView& csr() const { return csr_; }
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

  /// Selects incremental (dirty-set) vs full per-step topology upkeep.
  /// Defaults to AGENTNET_TOPO_INCREMENTAL (on when unset). Both modes keep
  /// every internal structure in sync, so toggling mid-run is safe and
  /// never changes results — only the amount of work per advance().
  void set_incremental_topology(bool incremental) {
    if (incremental != incremental_) set_script(nullptr);
    incremental_ = incremental;
  }
  bool incremental_topology() const { return incremental_; }

  /// Selects spatially sharded topology upkeep (sim/shard.hpp): tile-local
  /// dirty scans, per-row CSR patching, optional thread fan-out. Defaults
  /// from AGENTNET_TOPO_SHARD — "auto" (on from AGENTNET_TOPO_SHARD_MIN_NODES
  /// nodes, default 4096), or an explicit on/off. Sharded upkeep takes
  /// precedence over the incremental/full toggle and keeps every structure
  /// in sync, so toggling mid-run is safe and never changes results.
  void set_sharding(bool sharded);
  bool sharded() const { return sharded_; }

  /// Worker threads for the sharded dirty scan and row gather; 1 (the
  /// default, or AGENTNET_TOPO_SHARD_THREADS) is the exact serial path and
  /// every setting is bit-identical — threads only redistribute tile-local
  /// work (0 resolves AGENTNET_THREADS / hardware concurrency).
  void set_shard_threads(std::size_t threads);
  std::size_t shard_threads() const { return shard_threads_; }

  /// Approximate heap footprint of the world's live structures — node
  /// state, graphs, CSR, builder grid, shard tiles. The scale benches
  /// report this as bytes/node; O(n) walk, not for hot paths.
  std::size_t memory_bytes() const;

  /// Installs (or clears) link weather: down links are removed from the
  /// graph() view (the geometric topology is kept separately so
  /// incremental upkeep can diff against it). Takes effect immediately.
  void set_link_flapper(std::optional<LinkFlapper> flapper);
  const std::optional<LinkFlapper>& link_flapper() const { return flapper_; }

  /// Attaches a recorded run of this world (WorldScript::record on an
  /// identical world, same env knobs): from now on advance() replays the
  /// script's step for the current clock instead of running topology
  /// upkeep. The script is caller-owned, immutable and may be shared by
  /// any number of worlds. nullptr — or advancing past the script's end —
  /// returns to live upkeep; so do the upkeep reconfigurations
  /// (set_incremental_topology, set_sharding, set_link_flapper).
  void set_script(const WorldScript* script);
  const WorldScript* script() const { return script_; }

  /// Checkpoint support. Serializes the evolving state (positions, clock,
  /// batteries, mobility, epoch counters); load_state rebuilds the derived
  /// topology — ranges, geometric graph, weather view, CSR — from the
  /// restored snapshot, which reproduces it bit-for-bit because it is a
  /// pure function of that state. Call on a world constructed from the
  /// same config (same node count, policy, flapper and env knobs).
  void save_state(snapshot::ByteWriter& w) const;
  void load_state(snapshot::ByteReader& r);

 private:
  /// Quantized effective range: AGENTNET_TOPO_RANGE_QUANTUM > 0 coarsens
  /// ranges to multiples of the quantum (fewer range-dirty nodes per step);
  /// the default 0 is the exact identity. Applied identically in both
  /// upkeep modes, so they always agree bit for bit.
  double quantized_range(NodeId node) const;
  /// Fills dirty_ (ascending) with the maybe-dirty nodes whose position or
  /// quantized range changed since the last build, refreshing ranges_.
  void collect_dirty();
  /// Rebuilds or patches the geometric graph for the current snapshot.
  void refresh_topology();
  /// Refreshes the weather view, CSR snapshot and epoch after the
  /// geometric graph may have changed.
  void refresh_effective(bool geo_changed);
  /// The replaying advance() tail: applies the script's edge changes for
  /// the step just taken, bumps the epochs and re-emits its counters.
  void replay_topology();
  /// Rebuilds every derived structure (ranges, built positions, builder
  /// grid, graphs, CSR, shards) from the current node state.
  void rebuild_derived();
  /// Filter-copies geo_graph_ minus down links into back_flapped_,
  /// counting the drops (kLinkFlaps totals match the historical
  /// apply-every-step path).
  void rebuild_flapped();
  /// The sharded advance() tail: tile scan, parallel row gather, CSR row
  /// patching. Bit-identical to refresh_topology()'s flat body.
  void refresh_topology_sharded();
  /// Sharded counterpart of refresh_effective(): patches weather rows and
  /// CSR rows listed in touched_rows_ instead of rebuilding wholesale.
  void refresh_effective_sharded(bool geo_changed);
  /// (Re)builds the shard tiles + padded CSR from the current built state.
  void init_shards();
  /// Refreshes flap_row_drops_ (per-row weather drop counts) from the
  /// current geo/flapped pair; sharded weather bookkeeping.
  void rebuild_flap_row_drops();
  ThreadPool* shard_pool();

  Aabb bounds_;
  std::vector<Vec2> positions_;
  RadioModel radio_;
  BatteryBank batteries_;
  std::unique_ptr<MobilityModel> mobility_;
  TopologyBuilder builder_;
  // Pure geometric topology (no weather). Incremental updates patch it in
  // place; full rebuilds write into back_graph_ (recycling its per-node
  // capacity) and swap — steady-state advance() allocates nothing.
  Graph geo_graph_;
  Graph back_graph_;
  // Weather view double buffer, used only while a flapper is active.
  Graph flapped_;
  Graph back_flapped_;
  CsrView csr_;
  std::vector<double> ranges_;  ///< Quantized ranges as of the last build.
  std::vector<Vec2> built_positions_;  ///< Positions as of the last build.
  std::vector<NodeId> maybe_dirty_;  ///< Nodes that can ever become dirty.
  std::vector<NodeId> dirty_;        ///< collect_dirty() output (scratch).
  std::vector<NodeId> flap_scratch_;
  std::optional<LinkFlapper> flapper_;
  bool weather_active_ = false;
  bool flapped_valid_ = false;
  std::uint64_t flap_window_ = 0;
  std::size_t flap_drops_ = 0;  ///< Drops in the last weather rebuild.
  bool incremental_ = true;
  // Sharded upkeep (docs/PERFORMANCE.md, "Sharded world"). All of it is
  // derived state: checkpoints never serialize shard structures, load_state
  // rebuilds them, so snapshots stay byte-compatible with flat worlds.
  std::unique_ptr<WorldShards> shards_;
  std::unique_ptr<ThreadPool> shard_pool_;
  std::vector<NodeId> touched_rows_;  ///< update_into() modified-row output.
  std::vector<std::uint32_t> flap_row_drops_;  ///< Weather drops per row.
  bool sharded_ = false;
  std::size_t shard_threads_ = 1;
  double shard_tile_factor_ = 4.0;
  double quantum_ = 0.0;
  std::uint64_t epoch_ = 0;
  std::uint64_t state_epoch_ = 0;
  bool fixed_topology_ = false;
  std::size_t step_ = 0;
  const WorldScript* script_ = nullptr;
};

/// Per-step scalar recorder: collects one named series over a run.
class SeriesRecorder {
 public:
  void record(double value) { values_.push_back(value); }
  const std::vector<double>& values() const { return values_; }
  std::size_t size() const { return values_.size(); }

 private:
  std::vector<double> values_;
};

}  // namespace agentnet
