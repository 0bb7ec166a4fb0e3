// Figure 3: knowledge over time for 15 cooperating Minar conscientious
// agents. Paper: the team finishes mapping in ≈140 steps.
#include "bench_util.hpp"

using namespace agentnet;

int main() {
  const int runs = bench_runs(10);
  bench::print_header("Fig 3 — 15 Minar conscientious agents, cooperation",
                      "team finishes ≈140 steps", runs);
  const auto& net = bench::mapping_network();

  MappingTaskConfig task;
  task.population = 15;
  task.agent = {MappingPolicy::kConscientious, StigmergyMode::kOff};
  const auto summary =
      run_mapping_experiment(net, task, runs, paper::kRunSeedBase);
  bench::print_finish("15x conscientious (Minar)", summary);
  std::cout << "\nknowledge over time (mean across agents and runs):\n";
  bench::print_series("knowledge", summary.knowledge, 30);

  // Cooperation ablation: the same team with direct communication disabled.
  auto no_comm = task;
  no_comm.communication = false;
  const auto isolated =
      run_mapping_experiment(net, no_comm, runs, paper::kRunSeedBase);
  bench::print_finish("15x conscientious, communication OFF", isolated);
  std::printf("cooperation speedup: %.2fx\n",
              bench::finish_mean(isolated) / bench::finish_mean(summary));
  return 0;
}
