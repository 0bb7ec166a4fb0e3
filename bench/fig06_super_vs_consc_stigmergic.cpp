// Figure 6: conscientious vs super-conscientious with the paper's
// stigmergy. Paper: stigmergic super-conscientious outperforms stigmergic
// conscientious at *all* population sizes — footprints disperse the
// identical-knowledge agents that plain super-conscientious suffers from.
#include "bench_util.hpp"

using namespace agentnet;

int main() {
  const int runs = bench_runs(8);
  bench::print_header(
      "Fig 6 — conscientious vs super-conscientious, stigmergic agents",
      "stigmergic super-conscientious ≥ conscientious at every population "
      "size",
      runs);
  const auto& net = bench::mapping_network();

  const std::vector<int> pops = bench_full()
                                    ? std::vector<int>{1, 2, 5, 10, 15, 20,
                                                       30, 50, 75, 100}
                                    : std::vector<int>{1, 2, 5, 10, 20, 40};

  Table table({"population", "consc (stig)", "super (stig)", "super/consc"});
  table.set_precision(1);
  MappingTaskConfig task;
  task.record_series = false;
  for (int pop : pops) {
    task.population = pop;
    task.agent = {MappingPolicy::kConscientious, StigmergyMode::kFilterFirst};
    const auto consc =
        run_mapping_experiment(net, task, runs, paper::kRunSeedBase);
    task.agent = {MappingPolicy::kSuperConscientious,
                  StigmergyMode::kFilterFirst};
    const auto super_c =
        run_mapping_experiment(net, task, runs, paper::kRunSeedBase);
    table.add_row({static_cast<std::int64_t>(pop),
                   bench::finish_mean(consc),
                   bench::finish_mean(super_c),
                   bench::finish_mean(super_c) /
                       bench::finish_mean(consc)});
  }
  bench::finish_table("fig06", table);
  std::cout << "\n(paper expects super/consc ≤ 1 throughout)\n";
  return 0;
}
