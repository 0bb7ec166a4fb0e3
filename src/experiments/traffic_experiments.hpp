// Loaded-network experiments: ant-maintained routes carrying flow traffic.
//
// run_traffic_task closes the AntNet control loop on the paper's routing
// scenario: forward ants sample routes, the flow data plane (see
// docs/TRAFFIC.md) pushes session traffic over the snapshot tables, its
// queue occupancies feed back into the ants' trip times (kDelay mode) and
// the gateway balancer damps deposits through hot gateways.
// run_traffic_experiment replicates it through replicate()
// (experiments/replicate.hpp): every aggregate, including the latency
// percentiles (exact integer histogram), is bit-identical at any
// AGENTNET_THREADS setting.
#pragma once

#include <cstdint>

#include "aco/ant_routing.hpp"
#include "common/stats.hpp"
#include "core/routing_task.hpp"
#include "core/task_loop.hpp"
#include "fault/fault_plan.hpp"
#include "obs/obs.hpp"
#include "routing/gateway_balancer.hpp"
#include "traffic/flow_traffic.hpp"

namespace agentnet {

/// Faults mask the graph both planes see. The agent engine is threaded
/// into both planes: ant evaporation/entropy/snapshot, per-node queue
/// service, the connectivity walks and the world upkeep fan over the
/// run's team.
struct TrafficTaskConfig : RunContext {
  AntRoutingConfig ants{};
  FlowWorkloadConfig workload{};
  LinkQueueConfig queue{};
  /// Feed GatewayBalancer bias into backward-ant deposits.
  bool balance_gateways = false;
  GatewayBalancerConfig balancer{};
  std::size_t steps = 300;
  /// Traffic statistics restart here (warm-up excluded); connectivity is
  /// averaged over the same converged window.
  std::size_t measure_from = 150;
  /// Recorded world of this run's scenario (nullptr = live upkeep); see
  /// RoutingTaskConfig::script.
  const ScenarioScript* script = nullptr;
};

struct TrafficTaskResult {
  FlowTrafficStats traffic;
  double mean_connectivity = 0.0;
  /// Offered / carried load in packets per non-gateway node per step,
  /// over the measured window.
  double offered_load = 0.0;
  double carried_load = 0.0;
  std::size_t ants_launched = 0;
  std::size_t ants_completed = 0;
  std::size_t ant_hops = 0;
};

TrafficTaskResult run_traffic_task(const RoutingScenario& scenario,
                                   const TrafficTaskConfig& config, Rng rng);

struct TrafficSummary {
  int runs = 0;
  /// Exact element-wise merge of every run's stats, in run-index order;
  /// latency percentiles come off the merged histogram.
  FlowTrafficStats traffic;
  RunningStats mean_connectivity;
  RunningStats delivery_ratio;
  RunningStats offered_load;
  RunningStats carried_load;
};

/// `runs` replications through replicate() (experiments/replicate.hpp,
/// which documents the seeding, threading, telemetry, fault-override and
/// checkpoint contract), summarised in run-index order.
TrafficSummary run_traffic_experiment(const RoutingScenario& scenario,
                                      const TrafficTaskConfig& task,
                                      int runs, std::uint64_t run_seed_base,
                                      int threads = 0,
                                      const ObsConfig& obs =
                                          ObsConfig::from_env(),
                                      const FaultConfig& faults =
                                          FaultConfig::from_env());

}  // namespace agentnet
