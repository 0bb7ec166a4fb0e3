// Extension D — two cures for super-conscientious clumping. Minar et al.
// fixed the Fig 5 pathology by adding randomness to the movement decision
// ("in the best case they make super-conscientious and conscientious agents
// identical in high population size runs"); this paper's cure is stigmergy.
// This bench pits the two against each other across the randomness dial.
#include "bench_util.hpp"

using namespace agentnet;

int main() {
  const int runs = bench_runs(8);
  bench::print_header(
      "Ext D — dispersal by randomness (Minar) vs stigmergy (paper)",
      "randomness at best recovers conscientious performance; stigmergy "
      "should beat it",
      runs);
  const auto& net = bench::mapping_network();

  const std::vector<int> pops{15, 40};
  for (int pop : pops) {
    std::printf("population %d, super-conscientious agents:\n", pop);
    Table table({"variant", "finishing time", "ci95"});
    table.set_precision(1);

    auto measure = [&](const char* label, StigmergyMode mode,
                       double randomness) {
      MappingTaskConfig task;
      task.population = pop;
      task.agent = {MappingPolicy::kSuperConscientious, mode, randomness};
      task.record_series = false;
      const auto summary =
          run_mapping_experiment(net, task, runs, paper::kRunSeedBase);
      table.add_row({std::string(label), bench::finish_mean(summary),
                     confidence_halfwidth(summary.finishing_time)});
    };

    measure("plain (Fig 5 pathology)", StigmergyMode::kOff, 0.0);
    measure("randomness 0.05", StigmergyMode::kOff, 0.05);
    measure("randomness 0.20", StigmergyMode::kOff, 0.20);
    measure("randomness 0.50", StigmergyMode::kOff, 0.50);
    measure("stigmergy (paper)", StigmergyMode::kFilterFirst, 0.0);
    measure("stigmergy + randomness 0.05", StigmergyMode::kFilterFirst, 0.05);

    // Conscientious reference: the bar the randomness fix aims for.
    MappingTaskConfig ref;
    ref.population = pop;
    ref.agent = {MappingPolicy::kConscientious, StigmergyMode::kOff};
    ref.record_series = false;
    const auto consc =
        run_mapping_experiment(net, ref, runs, paper::kRunSeedBase);
    table.add_row({std::string("conscientious reference"),
                   bench::finish_mean(consc),
                   confidence_halfwidth(consc.finishing_time)});
    bench::finish_table("extD_pop" + std::to_string(pop), table);
    std::cout << "\n";
  }
  return 0;
}
