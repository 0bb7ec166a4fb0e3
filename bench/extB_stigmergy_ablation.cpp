// Extension B — ablation of the stigmergy design choices called out in
// DESIGN.md: (1) footprint precedence (filter-first, the paper's
// description, vs tie-break only) and (2) footprint horizon, on the
// mapping task at two population sizes.
#include "bench_util.hpp"

using namespace agentnet;

int main() {
  const int runs = bench_runs(8);
  bench::print_header(
      "Ext B — stigmergy ablation (mapping)",
      "which ingredient of the footprint rule buys the speedup", runs);
  const auto& net = bench::mapping_network();

  const std::vector<int> pops{1, 15};
  struct Variant {
    const char* label;
    StigmergyMode mode;
    std::size_t horizon;  // 0 = never expires
  };
  const Variant variants[] = {
      {"no stigmergy", StigmergyMode::kOff, 0},
      {"tie-break only", StigmergyMode::kTieBreak, 0},
      {"filter-first (paper)", StigmergyMode::kFilterFirst, 0},
      {"filter-first, horizon 50", StigmergyMode::kFilterFirst, 50},
      {"filter-first, horizon 5", StigmergyMode::kFilterFirst, 5},
  };

  for (int pop : pops) {
    std::printf("population %d, conscientious agents:\n", pop);
    Table table({"variant", "finishing time", "ci95"});
    table.set_precision(1);
    for (const auto& v : variants) {
      MappingTaskConfig task;
      task.population = pop;
      task.agent = {MappingPolicy::kConscientious, v.mode};
      task.stigmergy_horizon = v.horizon;
      task.record_series = false;
      const auto summary =
          run_mapping_experiment(net, task, runs, paper::kRunSeedBase);
      table.add_row({std::string(v.label), bench::finish_mean(summary),
                     confidence_halfwidth(summary.finishing_time)});
    }
    bench::finish_table("extB_pop" + std::to_string(pop), table);
    std::cout << "\n";
  }
  return 0;
}
