// The dynamic-routing scenario and task (paper §III).
//
// Scenario: 250 nodes in an arena, 12 stationary high-capability gateways,
// half the nodes mobile with per-node random velocities, mobile nodes on
// battery (radio range decays), links requiring mutual reach. The node
// placement and the full movement script are generated once per scenario
// seed and replayed identically across parameter settings, matching the
// paper's "all of our experiments are conducted with the same initial node
// placement and node movements".
//
// Task: agents wander, maintain routing tables; performance is the average
// fraction of nodes holding a valid gateway route over the converged window
// (steps 150–300 in the paper).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "core/routing_agent.hpp"
#include "core/stigmergy.hpp"
#include "core/task_loop.hpp"
#include "routing/connectivity.hpp"
#include "routing/routing_table.hpp"
#include "sim/world.hpp"
#include "traffic/flow_traffic.hpp"

namespace agentnet {

/// Where the stationary, high-capability gateways sit.
enum class GatewayPlacement {
  kRandom,  ///< Uniformly among the nodes (the default assumption).
  kSpread,  ///< Nearest nodes to the cells of a √k x √k grid — planned
            ///< deployment with even coverage.
  kPerimeter  ///< Nearest nodes to evenly spaced points on the arena
              ///< boundary — uplinks at the edge of the incident area.
};

const char* to_string(GatewayPlacement placement);

struct RoutingScenarioParams {
  std::size_t node_count = 250;
  std::size_t gateway_count = 12;
  GatewayPlacement gateway_placement = GatewayPlacement::kRandom;
  /// Fraction of all nodes that move (gateways never do).
  double mobile_fraction = 0.5;
  Aabb bounds{{0.0, 0.0}, {1000.0, 1000.0}};
  /// Ordinary-node base range, uniformly spread ±range_spread.
  double node_range = 110.0;
  double range_spread = 0.15;
  /// Gateways are "high capability": base range multiplier.
  double gateway_range_boost = 1.5;
  RandomDirectionMobility::Params movement{0.5, 3.0, 0.05};
  /// Mobile nodes are battery powered; range decays with charge. The drain
  /// is mild (≈30% charge lost over the 300-step run) so the system still
  /// converges to a quasi-stationary mean, as the paper reports, while the
  /// degradation is visible in the oracle trace.
  BatteryParams battery{1.0, 0.001};
  RangeScaling scaling{0.6};
  LinkPolicy policy = LinkPolicy::kSymmetricAnd;
  /// Length of the recorded movement script.
  std::size_t trace_steps = 300;
};

/// A fully materialised scenario: layout, masks and the movement script.
/// Immutable; make_world() stamps out fresh, identical worlds from it.
class RoutingScenario {
 public:
  RoutingScenario(RoutingScenarioParams params, std::uint64_t seed);

  /// Reassembles a scenario from serialized parts (see io/scenario_io.hpp).
  /// Validates sizes and masks.
  RoutingScenario(RoutingScenarioParams params,
                  std::vector<Vec2> initial_positions,
                  std::vector<double> base_ranges,
                  std::vector<bool> is_gateway, std::vector<bool> mobile,
                  TraceMobility trace);

  const RoutingScenarioParams& params() const { return params_; }
  const std::vector<bool>& is_gateway() const { return is_gateway_; }
  const std::vector<bool>& mobile() const { return mobile_; }
  std::size_t node_count() const { return params_.node_count; }
  const std::vector<Vec2>& initial_positions() const {
    return initial_positions_;
  }
  const std::vector<double>& base_ranges() const { return base_ranges_; }
  const TraceMobility& trace() const { return trace_; }

  /// A fresh world at step 0 replaying the recorded movement script. With
  /// a `script` recorded from this scenario, its topology upkeep replays
  /// that recording too (World::set_script).
  World make_world(const WorldScript* script = nullptr) const;

 private:
  void validate() const;
  RoutingScenarioParams params_;
  std::vector<Vec2> initial_positions_;
  std::vector<double> base_ranges_;
  std::vector<bool> is_gateway_;
  std::vector<bool> mobile_;
  TraceMobility trace_;
};

/// A scenario's world recorded once for every replication of an
/// experiment (docs/PERFORMANCE.md, "Shared world script"): the world's
/// topology upkeep and, optionally, the any-path oracle per step. Both
/// are pure functions of (scenario, step), so replaying them is
/// bit-identical to recomputing them.
struct ScenarioScript {
  /// Drives one make_world() through `steps` live advances and records
  /// them; with `oracle`, also the oracle after each advance.
  ScenarioScript(const RoutingScenario& scenario, std::size_t steps,
                 bool oracle);

  WorldScript world;
  /// oracle[s] is the oracle of world step s + 1 (empty unless recorded).
  std::vector<ConnectivityResult> oracle;

  /// The recorded oracle for `world_step`, or nullptr when not recorded.
  const ConnectivityResult* oracle_at(std::size_t world_step) const {
    return world_step >= 1 && world_step <= oracle.size()
               ? &oracle[world_step - 1]
               : nullptr;
  }
};

/// The agent engine fans arrive, group exchanges, the connectivity walks
/// and — for non-stigmergic teams — decide over the run's team, which
/// also runs the world upkeep.
struct RoutingTaskConfig : RunContext {
  int population = 100;
  RoutingAgentConfig agent;
  /// Heterogeneous team support: when non-empty, this roster overrides
  /// `population`/`agent` and each entry becomes one agent. Note that the
  /// meeting exchange (Phase 3) runs for a group when *any* member
  /// communicates; per-agent `communicate` only controls who shares.
  std::vector<RoutingAgentConfig> team;
  std::size_t steps = 300;
  /// Converged-window start for the mean-connectivity aggregate.
  std::size_t measure_from = 150;
  RoutePolicy route_policy{30};
  /// Footprints expire quickly — the network is mobile and old marks lie.
  std::size_t stigmergy_horizon = 20;
  /// Footprints retained per node; 1 is the paper's "last path" rule.
  std::size_t stigmergy_capacity = 1;
  /// Also record the any-path oracle upper bound per step.
  bool record_oracle = false;
  /// When set, the flow data plane (FlowWorkloadConfig{} over
  /// LinkQueueConfig{}, docs/TRAFFIC.md) carries packets over the agents'
  /// tables during the converged window (steps ≥ measure_from) and its
  /// delivery statistics are reported. The plane only reads the tables,
  /// so the agents behave exactly as with traffic off.
  bool traffic = false;
  /// Recorded world of this run's scenario (nullptr = live upkeep). Owned
  /// by the caller and shared read-only across runs; the experiment
  /// harnesses set it when they run two or more replications.
  const ScenarioScript* script = nullptr;
};

struct RoutingTaskResult {
  /// Fraction of nodes with a valid gateway route, per step.
  std::vector<double> connectivity;
  /// Oracle upper bound per step (empty unless requested).
  std::vector<double> oracle;
  /// Mean / stddev of connectivity over [measure_from, steps).
  double mean_connectivity = 0.0;
  double stddev_connectivity = 0.0;
  /// Present when the task injected traffic.
  std::optional<FlowTrafficStats> traffic_stats;
  /// Total migration traffic: Σ over actual moves of the moving agent's
  /// serialized size (the paper's overhead measure).
  std::size_t migration_bytes = 0;
  /// Failure-injection bookkeeping.
  std::size_t agents_lost = 0;
  std::size_t agents_respawned = 0;
  /// Population still alive when the run ended.
  std::size_t final_population = 0;
};

RoutingTaskResult run_routing_task(const RoutingScenario& scenario,
                                   const RoutingTaskConfig& config, Rng rng);

}  // namespace agentnet
