#include "aco/ant_routing_task.hpp"

#include <optional>

#include "common/stats.hpp"
#include "fault/fault_injector.hpp"
#include "obs/obs.hpp"
#include "routing/connectivity.hpp"
#include "snapshot/snapshot.hpp"

namespace agentnet {

AntRoutingResult run_ant_routing_task(const RoutingScenario& scenario,
                                      const AntRoutingTaskConfig& config,
                                      Rng rng) {
  AGENTNET_REQUIRE(config.measure_from < config.steps,
                   "measure_from must precede steps");
  const FaultPlan& plan = config.faults;
  plan.validate();
  obs::ScopedPhase setup_phase(obs::Phase::kSetup);
  World world = scenario.make_world();
  // Fork only when faults are live: an inert plan must leave the RNG
  // sequence — and therefore the fault-free baseline — untouched.
  std::optional<FaultInjector> injector;
  if (plan.any()) {
    Rng fault_stream = rng.fork(0xFA11);
    injector.emplace(plan, fault_stream);
  }
  AntRoutingConfig ant_config = config.ants;
  if (plan.agent_loss_probability > 0.0 &&
      ant_config.ant_loss_probability == 0.0)
    ant_config.ant_loss_probability = plan.agent_loss_probability;
  AntRoutingSystem ants(world.node_count(), scenario.is_gateway(), ant_config,
                        rng);
  const AgentParallel par(config.agent_parallel);
  ants.set_parallel(par);
  AntRoutingResult result;
  result.connectivity.reserve(config.steps);
  // Keyed on (world epoch, snapshot contents): skips the walk when neither
  // the edge set nor the pheromone-derived tables changed since last step.
  ConnectivityCache conn_cache;

  // Checkpoint/restore: the colony, the world, the fault mask and the
  // measurement cache. The run RNG is not carried — the colony copied it at
  // construction and nothing draws from the local after setup.
  const auto save_run = [&](snapshot::ByteWriter& w) {
    world.save_state(w);
    w.boolean(injector.has_value());
    if (injector) injector->save_state(w);
    ants.save_state(w);
    conn_cache.save_state(w);
    w.pod_vec(result.connectivity);
  };
  const auto load_run = [&](snapshot::ByteReader& r) {
    world.load_state(r);
    AGENTNET_REQUIRE(r.boolean() == injector.has_value(),
                     "snapshot: fault plan mismatch");
    if (injector) injector->load_state(r);
    ants.load_state(r);
    conn_cache.load_state(r);
    r.pod_vec(result.connectivity);
  };

  setup_phase.stop();
  std::size_t resume_at = 0;
  if (config.checkpoint && config.checkpoint->resuming())
    resume_at = config.checkpoint->restore(load_run);
  for (std::size_t t = resume_at; t < config.steps; ++t) {
    if (config.checkpoint && config.checkpoint->save_due(t))
      config.checkpoint->save(t, save_run);
    {
      AGENTNET_OBS_PHASE(kStep);
      const Graph& live =
          injector ? injector->live_graph(world, world.step()) : world.graph();
      ants.step(live, t);
    }
    world.advance();
    AGENTNET_OBS_PHASE(kMeasure);
    const RoutingTables tables = ants.snapshot_tables(t);
    if (injector && plan.topology_faults()) {
      const Graph& measured = injector->live_graph(world, world.step());
      result.connectivity.push_back(
          measure_connectivity(measured, tables, scenario.is_gateway(), 0, par)
              .fraction());
    } else {
      // Fault-free topology: the epoch-keyed cache walks world.graph().
      if (injector) injector->live_graph(world, world.step());
      result.connectivity.push_back(
          conn_cache.measure(world, tables, scenario.is_gateway(), 0, par)
              .fraction());
    }
    AGENTNET_OBS_GAUGE(kConnectivity, t, result.connectivity.back());
    if (AGENTNET_OBS_METRICS_WANT(t)) {
      AGENTNET_OBS_GAUGE(kPheromoneEntropy, t, ants.pheromone_entropy());
      if (injector && plan.topology_faults())
        AGENTNET_OBS_GAUGE(kLiveFraction, t,
                           injector->live_fraction(world.node_count()));
    }
    AGENTNET_OBS_METRICS_TICK(t);
  }
  AGENTNET_OBS_PHASE(kSummarize);
  RunningStats window;
  for (std::size_t t = config.measure_from; t < config.steps; ++t)
    window.add(result.connectivity[t]);
  result.mean_connectivity = window.mean();
  result.stddev_connectivity = window.stddev();
  result.ant_hops = ants.ant_hops();
  result.control_bytes = ants.control_bytes();
  result.ants_launched = ants.ants_launched();
  result.ants_completed = ants.ants_completed();
  return result;
}

}  // namespace agentnet
