// Figure 1: single-agent mapping with N. Minar's (non-stigmergic) agents on
// the paper's 300-node / ≈2164-edge network. Paper: the conscientious agent
// finishes around 3000 steps, the random agent around 8000.
#include "bench_util.hpp"

using namespace agentnet;

int main() {
  const int runs = bench_runs(10);
  bench::print_header(
      "Fig 1 — single agent, Minar algorithms",
      "conscientious ≈3000 steps, random ≈8000 steps (ratio ≈ 2.7x)", runs);
  const auto& net = bench::mapping_network();
  std::printf("network: %zu nodes, %zu directed edges\n\n",
              net.graph.node_count(), net.graph.edge_count());

  MappingTaskConfig task;
  task.population = 1;

  task.agent = {MappingPolicy::kRandom, StigmergyMode::kOff};
  const auto random_summary =
      run_mapping_experiment(net, task, runs, paper::kRunSeedBase);
  task.agent = {MappingPolicy::kConscientious, StigmergyMode::kOff};
  const auto consc_summary =
      run_mapping_experiment(net, task, runs, paper::kRunSeedBase);

  bench::print_finish("random (Minar)", random_summary);
  bench::print_finish("conscientious (Minar)", consc_summary);
  std::printf("speedup conscientious vs random: %.2fx\n\n",
              bench::finish_mean(random_summary) /
                  bench::finish_mean(consc_summary));

  std::cout << "knowledge over time, random agent:\n";
  bench::print_series("knowledge", random_summary.knowledge, 20);
  std::cout << "knowledge over time, conscientious agent:\n";
  bench::print_series("knowledge", consc_summary.knowledge, 20);
  return 0;
}
