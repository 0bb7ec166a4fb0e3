// The network-mapping task (paper §II): a team of agents steps through the
// four phases — sense, exchange, decide (+footprint), move — until every
// agent holds a perfect map. "Finishing time [is] the simulation time step
// where all agents have a perfect knowledge about the network topology",
// i.e. team efficiency, not individual efficiency.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "core/mapping_agent.hpp"
#include "core/stigmergy.hpp"
#include "core/task_loop.hpp"
#include "sim/world.hpp"

namespace agentnet {

/// The agent engine fans sense, group exchanges, measurement and — for
/// non-stigmergic teams — decide.
struct MappingTaskConfig : RunContext {
  int population = 1;
  MappingAgentConfig agent;
  /// Heterogeneous team support (Minar et al. studied agent *diversity* —
  /// "the efficient division of labor in the absence of centralized
  /// control"): when non-empty, this roster overrides `population`/`agent`
  /// and each entry becomes one agent.
  std::vector<MappingAgentConfig> team;
  /// Direct communication between co-located agents (always on in the
  /// paper's multi-agent runs; irrelevant for population 1).
  bool communication = true;
  /// Meeting reach in hops: 0 = the paper's rule (exchange only when
  /// agents land on the same node); 1 = agents on adjacent nodes also
  /// exchange, relaying transitively through chains of in-range agents
  /// (they sit on radios — a link between their hosts carries data without
  /// a migration). The extJ bench measures how much the cooperation result
  /// depends on this meeting opportunity.
  std::size_t comm_radius = 0;
  /// Footprint expiry in steps; 0 = footprints never expire (the mapping
  /// network is static, so stale footprints are still informative).
  std::size_t stigmergy_horizon = 0;
  /// Footprints retained per node; 1 is the paper's "last path" rule.
  std::size_t stigmergy_capacity = 1;
  /// Abort threshold for non-finishing configurations.
  std::size_t max_steps = 200000;
  /// Record per-step knowledge series (costs memory on long runs).
  bool record_series = true;
  /// Advance the world each step (battery-degraded mapping variant). The
  /// paper's mapping figures use a frozen world.
  bool advance_world = false;
  /// Truth override for flapping-link worlds: completeness and finishing
  /// are measured against this many edges (the underlying full topology)
  /// instead of the step-0 snapshot, which may have links down. Requires
  /// advance_world so the weather actually changes.
  std::optional<std::size_t> truth_edges_override;
  /// The paper's "network monitoring entity": a designated node that
  /// collects the map from every agent that lands on it. When set, the
  /// result additionally reports when the monitor first held the full
  /// topology — the "deliver the map to an operator" completion criterion,
  /// as opposed to the paper's "every agent knows everything".
  std::optional<NodeId> monitor_node;
};

struct MappingTaskResult {
  bool finished = false;
  /// Step at which all agents reached a perfect map (valid iff finished).
  std::size_t finishing_time = 0;
  std::size_t truth_edges = 0;
  /// Mean over agents of the fraction of truth edges known, per step.
  std::vector<double> mean_knowledge;
  /// Worst agent's fraction per step (this hitting 1.0 defines finishing).
  std::vector<double> min_knowledge;
  /// Total migration traffic: Σ over actual moves of the moving agent's
  /// serialized size (the paper's overhead measure).
  std::size_t migration_bytes = 0;
  /// Failure-injection bookkeeping (zero on fault-free runs).
  std::size_t agents_lost = 0;
  std::size_t agents_respawned = 0;
  /// Population still alive when the task ended.
  std::size_t final_population = 0;
  /// Monitor bookkeeping (meaningful only when a monitor node was set).
  bool monitor_finished = false;
  std::size_t monitor_finishing_time = 0;
  /// Monitor's map completeness when the task ended.
  double monitor_completeness = 0.0;
};

/// Runs one mapping task on `world`. Agent starting nodes and all movement
/// tie-breaks derive from `rng`; the world itself is treated as given.
MappingTaskResult run_mapping_task(World& world, const MappingTaskConfig& config,
                                   Rng rng);

}  // namespace agentnet
