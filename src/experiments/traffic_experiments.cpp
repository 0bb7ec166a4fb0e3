#include "experiments/traffic_experiments.hpp"

#include <optional>
#include <vector>

#include "common/error.hpp"
#include "experiments/replicate.hpp"

namespace agentnet {

TrafficTaskResult run_traffic_task(const RoutingScenario& scenario,
                                   const TrafficTaskConfig& config, Rng rng) {
  AGENTNET_REQUIRE(config.measure_from < config.steps,
                   "measure_from must precede steps");
  TaskLoop loop(config);
  World world =
      scenario.make_world(config.script ? &config.script->world : nullptr);
  world.set_team(loop.par().team());
  loop.fork_faults(rng);
  AntRoutingConfig ant_config = config.ants;
  ant_config.ant_loss_probability =
      loop.agent_loss(ant_config.ant_loss_probability);
  // The data plane gets its own stream so adding traffic never perturbs
  // the ants' draw sequence (the zero-load golden-equivalence anchor).
  Rng traffic_stream = rng.fork(0xF10A);
  AntRoutingSystem ants(world.node_count(), scenario.is_gateway(), ant_config,
                        rng);
  FlowTrafficSimulator traffic(world.node_count(), scenario.is_gateway(),
                               config.workload, config.queue, traffic_stream);
  ants.set_parallel(loop.par());
  traffic.set_parallel(loop.par());
  GatewayBalancer balancer(world.node_count(), scenario.is_gateway(),
                           config.balancer);
  RunningStats window;

  // Checkpoint/restore: both planes, the balancer feedback, the fault mask
  // and the measurement accumulators. Captured at the loop top, *before*
  // the measure_from stats reset, so a resume at that step still resets.
  const auto save_run = [&](snapshot::ByteWriter& w) {
    world.save_state(w);
    loop.save_faults(w);
    ants.save_state(w);
    traffic.save_state(w);
    balancer.save_state(w);
    loop.save_cache(w);
    window.save_state(w);
  };
  const auto load_run = [&](snapshot::ByteReader& r) {
    world.load_state(r);
    loop.load_faults(r);
    ants.load_state(r);
    traffic.load_state(r);
    balancer.load_state(r);
    loop.load_cache(r);
    window.load_state(r);
  };

  loop.run(world, config.steps, save_run, load_run, [&](std::size_t t) {
    if (t == config.measure_from) traffic.reset_stats();
    const Graph& live = loop.live_graph(world, world.step());
    {
      AGENTNET_OBS_PHASE(kStep);
      // Control plane first: ants sample over the queues the data plane
      // left behind last step, so trip times reflect live congestion.
      ants.step(live, t, traffic.hop_delays(),
                config.balance_gateways
                    ? std::span<const double>(balancer.bias())
                    : std::span<const double>{});
    }
    const RoutingTables tables = ants.snapshot_tables(t);
    {
      AGENTNET_OBS_PHASE(kStep);
      traffic.step(live, tables, t);
      if (config.balance_gateways)
        balancer.observe(traffic.gateway_deliveries());
    }
    {
      AGENTNET_OBS_PHASE(kMeasure);
      // Measured before the world advances: the live graph above.
      if (t >= config.measure_from)
        window.add(
            loop.connectivity(t, world, tables, scenario.is_gateway()));
      if (AGENTNET_OBS_METRICS_WANT(t)) {
        AGENTNET_OBS_GAUGE(kQueueDepth, t,
                           static_cast<double>(traffic.queued()));
        AGENTNET_OBS_GAUGE(kPheromoneEntropy, t, ants.pheromone_entropy());
        AGENTNET_OBS_LATENCY_WINDOW(t, traffic.stats().latency_histogram);
      }
    }
    world.advance();
  });
  AGENTNET_OBS_PHASE(kSummarize);
  traffic.finish();
  TrafficTaskResult result;
  result.traffic = traffic.stats();
  result.mean_connectivity = window.mean();
  const auto window_steps =
      static_cast<double>(config.steps - config.measure_from);
  double sources = 0.0;
  for (const bool gw : scenario.is_gateway())
    if (!gw) sources += 1.0;
  const double denom = window_steps * sources;
  if (denom > 0.0) {
    result.offered_load =
        static_cast<double>(result.traffic.generated) / denom;
    result.carried_load =
        static_cast<double>(result.traffic.delivered) / denom;
  }
  result.ants_launched = ants.ants_launched();
  result.ants_completed = ants.ants_completed();
  result.ant_hops = ants.ant_hops();
  return result;
}

TrafficSummary run_traffic_experiment(const RoutingScenario& scenario,
                                      const TrafficTaskConfig& task,
                                      int runs, std::uint64_t run_seed_base,
                                      int threads, const ObsConfig& obs,
                                      const FaultConfig& faults) {
  // Shared world script, as in run_routing_experiment (no oracle here).
  std::optional<ScenarioScript> script;
  const std::vector<TrafficTaskResult> results = replicate(
      {"traffic", runs, run_seed_base, scenario.node_count(), task.steps,
       threads, obs, faults},
      task,
      [&](const TrafficTaskConfig& config, Rng rng) {
        return run_traffic_task(scenario, config, rng);
      },
      [&](TrafficTaskConfig& effective) {
        effective.script = &script.emplace(scenario, effective.steps, false);
      });

  // Run-index-order combination: integer stats merge exactly, so the
  // percentile read off the merged histogram is thread-count invariant.
  TrafficSummary summary;
  summary.runs = runs;
  for (const auto& result : results) {
    summary.traffic += result.traffic;
    summary.mean_connectivity.add(result.mean_connectivity);
    summary.delivery_ratio.add(result.traffic.delivery_ratio());
    summary.offered_load.add(result.offered_load);
    summary.carried_load.add(result.carried_load);
  }
  return summary;
}

}  // namespace agentnet
