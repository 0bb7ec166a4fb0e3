// Extension N — network density and the "2164 edges" question. DESIGN.md
// argues the paper's figure must mean bidirectional links (4328 arcs): at
// 2164 *arcs* the 300-node geometric network sits near its connectivity
// threshold and random-walk cover times explode. This bench shows the
// threshold with data — single-agent finishing times and their ratio as a
// function of arc count.
#include "bench_util.hpp"

using namespace agentnet;

int main() {
  const int runs = bench_runs(5);
  bench::print_header(
      "Ext N — mapping network density sweep",
      "random/conscientious ratio collapses toward the paper's ~2.7x as "
      "density grows; the literal 2164-arc reading is pathological",
      runs);

  Table table({"arcs", "mean out-deg", "conscientious", "random", "ratio"});
  table.set_precision(1);
  const std::vector<std::size_t> arc_targets =
      bench_full()
          ? std::vector<std::size_t>{2164, 2600, 3200, 4328, 5200, 6400}
          : std::vector<std::size_t>{2164, 3200, 4328, 5200};
  for (std::size_t arcs : arc_targets) {
    TargetEdgeParams params;
    params.geometry.node_count = 300;
    params.target_edges = arcs;
    params.tolerance = 0.02;
    const auto net =
        generate_target_edge_network(params, paper::kMappingNetworkSeed);

    MappingTaskConfig task;
    task.population = 1;
    task.record_series = false;
    task.max_steps = 400000;

    task.agent = {MappingPolicy::kConscientious, StigmergyMode::kOff};
    const auto consc =
        run_mapping_experiment(net, task, runs, paper::kRunSeedBase);
    task.agent = {MappingPolicy::kRandom, StigmergyMode::kOff};
    const auto random =
        run_mapping_experiment(net, task, runs, paper::kRunSeedBase);

    table.add_row(
        {static_cast<std::int64_t>(net.graph.edge_count()),
         static_cast<double>(net.graph.edge_count()) / 300.0,
         bench::finish_mean(consc), bench::finish_mean(random),
         bench::finish_mean(random) / bench::finish_mean(consc)});
  }
  bench::finish_table("extN", table);
  std::cout << "\n(the paper reports 8000/3000 ≈ 2.7x; see DESIGN.md §2 for "
               "why we adopt the 4328-arc reading)\n";
  return 0;
}
