#include "experiments/traffic_experiments.hpp"

#include <optional>
#include <vector>

#include "common/error.hpp"
#include "experiments/replicate.hpp"
#include "fault/fault_injector.hpp"
#include "routing/connectivity.hpp"
#include "snapshot/snapshot.hpp"

namespace agentnet {

TrafficTaskResult run_traffic_task(const RoutingScenario& scenario,
                                   const TrafficTaskConfig& config, Rng rng) {
  AGENTNET_REQUIRE(config.measure_from < config.steps,
                   "measure_from must precede steps");
  const FaultPlan& plan = config.faults;
  plan.validate();
  obs::ScopedPhase setup_phase(obs::Phase::kSetup);
  World world =
      scenario.make_world(config.script ? &config.script->world : nullptr);
  std::optional<FaultInjector> injector;
  if (plan.any()) {
    Rng fault_stream = rng.fork(0xFA11);
    injector.emplace(plan, fault_stream);
  }
  AntRoutingConfig ant_config = config.ants;
  if (plan.agent_loss_probability > 0.0 &&
      ant_config.ant_loss_probability == 0.0)
    ant_config.ant_loss_probability = plan.agent_loss_probability;
  // The data plane gets its own stream so adding traffic never perturbs
  // the ants' draw sequence (the zero-load golden-equivalence anchor).
  Rng traffic_stream = rng.fork(0xF10A);
  AntRoutingSystem ants(world.node_count(), scenario.is_gateway(), ant_config,
                        rng);
  FlowTrafficSimulator traffic(world.node_count(), scenario.is_gateway(),
                               config.workload, config.queue, traffic_stream);
  const AgentParallel par(config.agent_parallel);
  ants.set_parallel(par);
  traffic.set_parallel(par);
  GatewayBalancer balancer(world.node_count(), scenario.is_gateway(),
                           config.balancer);
  ConnectivityCache conn_cache;
  RunningStats window;

  // Checkpoint/restore: both planes, the balancer feedback, the fault mask
  // and the measurement accumulators. Captured at the loop top, *before*
  // the measure_from stats reset, so a resume at that step still resets.
  const auto save_run = [&](snapshot::ByteWriter& w) {
    world.save_state(w);
    w.boolean(injector.has_value());
    if (injector) injector->save_state(w);
    ants.save_state(w);
    traffic.save_state(w);
    balancer.save_state(w);
    conn_cache.save_state(w);
    window.save_state(w);
  };
  const auto load_run = [&](snapshot::ByteReader& r) {
    world.load_state(r);
    AGENTNET_REQUIRE(r.boolean() == injector.has_value(),
                     "snapshot: fault plan mismatch");
    if (injector) injector->load_state(r);
    ants.load_state(r);
    traffic.load_state(r);
    balancer.load_state(r);
    conn_cache.load_state(r);
    window.load_state(r);
  };

  setup_phase.stop();
  std::size_t resume_at = 0;
  if (config.checkpoint && config.checkpoint->resuming())
    resume_at = config.checkpoint->restore(load_run);
  for (std::size_t t = resume_at; t < config.steps; ++t) {
    if (config.checkpoint && config.checkpoint->save_due(t))
      config.checkpoint->save(t, save_run);
    if (t == config.measure_from) traffic.reset_stats();
    const Graph& live =
        injector ? injector->live_graph(world, world.step()) : world.graph();
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
      if (t >= config.measure_from) {
        const double fraction =
            injector && plan.topology_faults()
                ? measure_connectivity(live, tables, scenario.is_gateway(), 0,
                                       par)
                      .fraction()
                : conn_cache.measure(world, tables, scenario.is_gateway(), 0,
                                     par)
                      .fraction();
        window.add(fraction);
        AGENTNET_OBS_GAUGE(kConnectivity, t, fraction);
      }
      if (AGENTNET_OBS_METRICS_WANT(t)) {
        AGENTNET_OBS_GAUGE(kQueueDepth, t,
                           static_cast<double>(traffic.queued()));
        AGENTNET_OBS_GAUGE(kPheromoneEntropy, t, ants.pheromone_entropy());
        if (injector && plan.topology_faults())
          AGENTNET_OBS_GAUGE(kLiveFraction, t,
                             injector->live_fraction(world.node_count()));
        AGENTNET_OBS_LATENCY_WINDOW(t, traffic.stats().latency_histogram);
      }
    }
    world.advance();
    AGENTNET_OBS_METRICS_TICK(t);
  }
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
