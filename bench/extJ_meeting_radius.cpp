// Extension J — how much does cooperation depend on meeting opportunity?
// The paper's agents exchange knowledge only when they land on the same
// node; but agents sit on radios, and a link between their hosts could
// carry the exchange without a migration. This bench reruns the Fig 3/4
// cooperation experiment with radius-1 (in-range, relayed) meetings — and
// shows the finishing-time gap between mean-knowledge saturation and
// "every agent perfect" is a meeting-opportunity artefact.
#include "bench_util.hpp"

using namespace agentnet;

int main() {
  const int runs = bench_runs(10);
  bench::print_header(
      "Ext J — meeting radius ablation (mapping cooperation)",
      "same-node meetings throttle knowledge spread; radio-range meetings "
      "collapse the straggler tail",
      runs);
  const auto& net = bench::mapping_network();

  Table table({"team", "same-node meetings", "in-range meetings",
               "speedup"});
  table.set_precision(1);
  for (int pop : {5, 15, 50}) {
    MappingTaskConfig task;
    task.population = pop;
    task.agent = {MappingPolicy::kConscientious, StigmergyMode::kOff};
    task.record_series = false;

    task.comm_radius = 0;
    const auto near =
        run_mapping_experiment(net, task, runs, paper::kRunSeedBase);
    task.comm_radius = 1;
    const auto far =
        run_mapping_experiment(net, task, runs, paper::kRunSeedBase);
    table.add_row({static_cast<std::int64_t>(pop),
                   bench::finish_mean(near), bench::finish_mean(far),
                   bench::finish_mean(near) / bench::finish_mean(far)});
  }
  bench::finish_table("extJ", table);
  std::cout << "\n(EXPERIMENTS.md discusses this against the paper's Fig 3 "
               "cooperation factor)\n";
  return 0;
}
