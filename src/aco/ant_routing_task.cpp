#include "aco/ant_routing_task.hpp"

#include "obs/obs.hpp"

namespace agentnet {

AntRoutingResult run_ant_routing_task(const RoutingScenario& scenario,
                                      const AntRoutingTaskConfig& config,
                                      Rng rng) {
  AGENTNET_REQUIRE(config.measure_from < config.steps,
                   "measure_from must precede steps");
  TaskLoop loop(config);
  World world = scenario.make_world();
  world.set_team(loop.par().team());
  loop.fork_faults(rng);
  AntRoutingConfig ant_config = config.ants;
  ant_config.ant_loss_probability =
      loop.agent_loss(ant_config.ant_loss_probability);
  AntRoutingSystem ants(world.node_count(), scenario.is_gateway(), ant_config,
                        rng);
  ants.set_parallel(loop.par());
  AntRoutingResult result;
  result.connectivity.reserve(config.steps);

  // Checkpoint/restore: the colony, the world, the fault mask and the
  // measurement cache. The run RNG is not carried — the colony copied it at
  // construction and nothing draws from the local after setup.
  const auto save_run = [&](snapshot::ByteWriter& w) {
    world.save_state(w);
    loop.save_faults(w);
    ants.save_state(w);
    loop.save_cache(w);
    w.pod_vec(result.connectivity);
  };
  const auto load_run = [&](snapshot::ByteReader& r) {
    world.load_state(r);
    loop.load_faults(r);
    ants.load_state(r);
    loop.load_cache(r);
    r.pod_vec(result.connectivity);
  };

  loop.run(world, config.steps, save_run, load_run, [&](std::size_t t) {
    {
      AGENTNET_OBS_PHASE(kStep);
      ants.step(loop.live_graph(world, world.step()), t);
    }
    world.advance();
    AGENTNET_OBS_PHASE(kMeasure);
    result.connectivity.push_back(loop.connectivity(
        t, world, ants.snapshot_tables(t), scenario.is_gateway()));
    if (AGENTNET_OBS_METRICS_WANT(t))
      AGENTNET_OBS_GAUGE(kPheromoneEntropy, t, ants.pheromone_entropy());
  });
  AGENTNET_OBS_PHASE(kSummarize);
  const RunningStats window =
      window_stats(result.connectivity, config.measure_from);
  result.mean_connectivity = window.mean();
  result.stddev_connectivity = window.stddev();
  result.ant_hops = ants.ant_hops();
  result.control_bytes = ants.control_bytes();
  result.ants_launched = ants.ants_launched();
  result.ants_completed = ants.ants_completed();
  return result;
}

}  // namespace agentnet
