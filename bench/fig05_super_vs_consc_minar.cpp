// Figure 5: conscientious vs super-conscientious (Minar agents) across
// population sizes. Paper's surprising result: super-conscientious wins at
// small populations but *loses* to conscientious at large ones — after a
// meeting the agents' knowledge is identical, so they pick the same next
// node and chase each other.
#include "bench_util.hpp"

using namespace agentnet;

int main() {
  const int runs = bench_runs(8);
  bench::print_header(
      "Fig 5 — conscientious vs super-conscientious, Minar agents",
      "super wins at small populations, conscientious wins at large ones "
      "(crossover)",
      runs);
  const auto& net = bench::mapping_network();

  const std::vector<int> pops = bench_full()
                                    ? std::vector<int>{1, 2, 5, 10, 15, 20,
                                                       30, 50, 75, 100}
                                    : std::vector<int>{1, 2, 5, 10, 20, 40};

  Table table({"population", "conscientious", "super-conscientious",
               "super/consc"});
  table.set_precision(1);
  MappingTaskConfig task;
  task.record_series = false;
  for (int pop : pops) {
    task.population = pop;
    task.agent = {MappingPolicy::kConscientious, StigmergyMode::kOff};
    const auto consc =
        run_mapping_experiment(net, task, runs, paper::kRunSeedBase);
    task.agent = {MappingPolicy::kSuperConscientious, StigmergyMode::kOff};
    const auto super_c =
        run_mapping_experiment(net, task, runs, paper::kRunSeedBase);
    table.add_row({static_cast<std::int64_t>(pop),
                   bench::finish_mean(consc),
                   bench::finish_mean(super_c),
                   bench::finish_mean(super_c) /
                       bench::finish_mean(consc)});
  }
  bench::finish_table("fig05", table);
  std::cout << "\n(super/consc < 1 means super-conscientious is faster; "
               "paper expects the ratio to cross 1 as population grows)\n";
  return 0;
}
