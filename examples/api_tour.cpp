// The compilable companion to docs/API.md: every snippet in the reference
// is lifted from here. Covers network generation, a single mapping task,
// the run context every task config inherits, a parallel multi-run mapping
// experiment, a routing experiment, flow traffic with delay-reinforced
// ants, and the stats types — the whole public surface a typical consumer
// touches.
#include <cstdio>

#include "agentnet.hpp"

using namespace agentnet;

int main() {
  // --- Network generation ---------------------------------------------------
  // The paper's mapping network: 300 nodes, ≈2164 directed edges, strongly
  // connected. Deterministic in the seed.
  GeneratedNetwork net = paper_mapping_network(/*seed=*/2010);
  std::printf("network: %zu nodes, %zu directed edges\n",
              net.graph.node_count(), net.graph.edge_count());

  // --- One mapping task -----------------------------------------------------
  // Ten stigmergic conscientious agents map the network cooperatively.
  World world = World::frozen(net);
  MappingTaskConfig task;
  task.population = 10;
  task.agent = {MappingPolicy::kConscientious, StigmergyMode::kFilterFirst};
  MappingTaskResult one = run_mapping_task(world, task, Rng(7));
  std::printf("single run: finished=%d at step %zu\n", one.finished,
              one.finishing_time);

  // --- The run context every task config inherits ---------------------------
  // RunContext holds the fault plan, the intra-run agent engine and the
  // checkpoint port; MappingTaskConfig, RoutingTaskConfig,
  // AntRoutingTaskConfig, DvRoutingTaskConfig and TrafficTaskConfig all
  // derive from it, so these three are set the same way on any task.
  MappingTaskConfig stormy = task;
  RunContext& context = stormy;
  context.faults.agent_loss_probability = 0.01;  // lost in transit
  context.faults.watchdog_ttl = 30;              // relaunch silent slots
  context.agent_parallel.threads = 2;  // bit-identical to the serial path
  MappingTaskResult faulted = run_mapping_task(world, stormy, Rng(7));
  std::printf("under faults: finished=%d, %zu agents lost, %zu "
              "relaunched\n",
              faulted.finished, faulted.agents_lost, faulted.agents_respawned);

  // --- A multi-run experiment (parallel, bit-reproducible) -------------------
  // 12 replications seeded 1000+r, fanned out across AGENTNET_THREADS
  // workers (default: all cores). The summary is bit-identical at every
  // thread count; pass threads=1 explicitly for the plain serial loop.
  MappingSummary summary =
      run_mapping_experiment(net, task, /*runs=*/12, /*run_seed_base=*/1000);
  std::printf("experiment: mean finish %.1f ±%.1f over %d runs\n",
              summary.finishing_time.mean(),
              confidence_halfwidth(summary.finishing_time), summary.runs);

  // --- The routing scenario and experiment -----------------------------------
  // A small MANET: placement, gateway mask and the full movement script are
  // generated once from the seed and replayed identically for every run.
  RoutingScenarioParams params;
  params.node_count = 60;
  params.gateway_count = 4;
  params.bounds = {{0.0, 0.0}, {400.0, 400.0}};
  params.trace_steps = 80;
  RoutingScenario scenario(params, /*seed=*/9);

  RoutingTaskConfig routing;
  routing.population = 20;
  routing.steps = 80;
  routing.measure_from = 40;  // converged window
  RoutingSummary routed =
      run_routing_experiment(scenario, routing, /*runs=*/8,
                             /*run_seed_base=*/50);
  std::printf("routing: connectivity %.3f ±%.3f\n",
              routed.mean_connectivity.mean(),
              confidence_halfwidth(routed.mean_connectivity));

  // --- Flow traffic over the ant-maintained routes ---------------------------
  // Sessions arrive Poisson, packets queue at each hop, and the ants deposit
  // pheromone in proportion to 1/trip-time (kDelay) instead of hop count.
  // The latency percentiles come off an exact integer histogram, so they are
  // bit-identical at any AGENTNET_THREADS.
  TrafficTaskConfig traffic;
  traffic.workload.offered_load = 0.3;  // packets / node / step
  traffic.ants.reinforcement = AntReinforcement::kDelay;
  traffic.balance_gateways = true;
  traffic.steps = 80;
  traffic.measure_from = 40;
  TrafficTaskResult carried = run_traffic_task(scenario, traffic, Rng(5));
  TrafficSummary loaded =
      run_traffic_experiment(scenario, traffic, /*runs=*/4,
                             /*run_seed_base=*/500);
  std::printf("traffic: delivery %.3f p99 %llu steps (one run %.3f)\n",
              loaded.delivery_ratio.mean(),
              static_cast<unsigned long long>(
                  loaded.traffic.latency_quantile(0.99)),
              carried.traffic.delivery_ratio());

  // --- Stats types ------------------------------------------------------------
  // RunningStats is mergeable (Chan/Welford): combine accumulators you
  // built elsewhere, e.g. across your own worker shards.
  RunningStats shard_a, shard_b;
  shard_a.add(1.0);
  shard_a.add(2.0);
  shard_b.add(3.0);
  shard_a.merge(shard_b);
  std::printf("merged stats: n=%zu mean=%.2f\n", shard_a.count(),
              shard_a.mean());

  // Per-step series over the experiment's runs, decimated for printing.
  const SeriesAccumulator& knowledge = summary.knowledge;
  for (std::size_t idx : series_sample_points(knowledge.length(), 5))
    std::printf("  step %4zu: knowledge %.3f\n", idx,
                knowledge.at(idx).mean());
  return 0;
}
