// Figure 2: single-agent mapping with the paper's stigmergic agents. Paper:
// stigmergic conscientious ≈2500 steps, stigmergic random ≈6600 — both beat
// the corresponding Minar agents of Fig. 1.
#include "bench_util.hpp"

using namespace agentnet;

int main() {
  const int runs = bench_runs(10);
  bench::print_header(
      "Fig 2 — single agent, stigmergic algorithms",
      "stigmergic conscientious ≈2500, stigmergic random ≈6600; both beat "
      "Fig 1",
      runs);
  const auto& net = bench::mapping_network();

  MappingTaskConfig task;
  task.population = 1;

  // A footprint is useful until the agent next returns through the node;
  // revisit periods differ by policy, so the expiry horizon does too. The
  // random walker's returns are slow — footprints never expire; the
  // conscientious agent cycles in ~n/3 steps — older marks are stale noise
  // (extB ablates this choice).
  struct Row {
    const char* label;
    MappingPolicy policy;
    StigmergyMode mode;
    std::size_t horizon;
  };
  const Row rows[] = {
      {"random (Minar)", MappingPolicy::kRandom, StigmergyMode::kOff, 0},
      {"random (stigmergic)", MappingPolicy::kRandom,
       StigmergyMode::kFilterFirst, 0},
      {"conscientious (Minar)", MappingPolicy::kConscientious,
       StigmergyMode::kOff, 0},
      {"conscientious (stigmergic)", MappingPolicy::kConscientious,
       StigmergyMode::kFilterFirst, 100},
  };
  MappingSummary summaries[4];
  for (int i = 0; i < 4; ++i) {
    task.agent = {rows[i].policy, rows[i].mode};
    task.stigmergy_horizon = rows[i].horizon;
    summaries[i] =
        run_mapping_experiment(net, task, runs, paper::kRunSeedBase);
    bench::print_finish(rows[i].label, summaries[i]);
  }
  std::printf(
      "\nstigmergy speedup: random %.2fx, conscientious %.2fx (paper: "
      "8000/6600=1.21x, 3000/2500=1.20x)\n\n",
      bench::finish_mean(summaries[0]) / bench::finish_mean(summaries[1]),
      bench::finish_mean(summaries[2]) / bench::finish_mean(summaries[3]));

  std::cout << "knowledge over time, stigmergic conscientious agent:\n";
  bench::print_series("knowledge", summaries[3].knowledge, 20);
  return 0;
}
