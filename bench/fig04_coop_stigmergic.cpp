// Figure 4: knowledge over time for 15 of the paper's stigmergic
// conscientious agents. Paper: ≈125 steps, roughly 10% faster than the
// Minar team of Fig. 3.
#include "bench_util.hpp"

using namespace agentnet;

int main() {
  const int runs = bench_runs(10);
  bench::print_header(
      "Fig 4 — 15 stigmergic conscientious agents, cooperation",
      "team finishes ≈125 steps, ~10% faster than Fig 3's ≈140", runs);
  const auto& net = bench::mapping_network();

  MappingTaskConfig task;
  task.population = 15;

  task.agent = {MappingPolicy::kConscientious, StigmergyMode::kOff};
  const auto minar =
      run_mapping_experiment(net, task, runs, paper::kRunSeedBase);
  task.agent = {MappingPolicy::kConscientious, StigmergyMode::kFilterFirst};
  const auto ours =
      run_mapping_experiment(net, task, runs, paper::kRunSeedBase);

  bench::print_finish("15x conscientious (Minar)", minar);
  bench::print_finish("15x conscientious (stigmergic)", ours);
  std::printf(
      "\nstigmergic team is %.1f%% faster (paper: ~10%%)\n\n",
      100.0 * (1.0 - bench::finish_mean(ours) / bench::finish_mean(minar)));
  std::cout << "knowledge over time, stigmergic team:\n";
  bench::print_series("knowledge", ours.knowledge, 30);
  return 0;
}
