// Extension O — are the mapping results geometry artefacts? The paper's
// network is a unit-disk-style radio graph; this bench reruns the core
// agent comparison on Erdős–Rényi and preferential-attachment topologies
// of matched size and density.
#include "bench_util.hpp"

using namespace agentnet;

namespace {

struct Family {
  const char* label;
  Graph graph;
};

double mean_finish(const Graph& graph, MappingPolicy policy,
                   StigmergyMode mode, int population, int runs) {
  MappingTaskConfig cfg;
  cfg.population = population;
  cfg.agent = {policy, mode};
  cfg.record_series = false;
  cfg.max_steps = 500000;
  RunningStats finish;
  for (const auto& result : bench::mapping_runs(
           cfg, runs, graph.node_count(), [&] { return World::fixed(graph); }))
    if (result.finished)
      finish.add(static_cast<double>(result.finishing_time));
  return finish.empty() ? -1.0 : finish.mean();
}

}  // namespace

int main() {
  const int runs = bench_runs(5);
  bench::print_header(
      "Ext O — mapping across graph families",
      "conscientious < random and stigmergy/cooperation gains should not "
      "be unit-disk artefacts",
      runs);

  std::vector<Family> families;
  families.push_back({"geometric (paper)", bench::mapping_network().graph});
  families.push_back(
      {"Erdos-Renyi", erdos_renyi_digraph(300, 4328, 2010)});
  families.push_back(
      {"pref. attachment", preferential_attachment_graph(300, 7, 2010)});

  Table table({"family", "arcs", "random x1", "consc x1", "ratio",
               "consc x15", "super x15"});
  table.set_precision(1);
  for (const auto& fam : families) {
    const double rnd =
        mean_finish(fam.graph, MappingPolicy::kRandom, StigmergyMode::kOff,
                    1, runs);
    const double consc = mean_finish(fam.graph, MappingPolicy::kConscientious,
                                     StigmergyMode::kOff, 1, runs);
    const double team = mean_finish(fam.graph, MappingPolicy::kConscientious,
                                    StigmergyMode::kOff, 15, runs);
    const double super_team =
        mean_finish(fam.graph, MappingPolicy::kSuperConscientious,
                    StigmergyMode::kOff, 15, runs);
    table.add_row({std::string(fam.label),
                   static_cast<std::int64_t>(fam.graph.edge_count()), rnd,
                   consc, rnd / consc, team, super_team});
  }
  bench::finish_table("extO", table);
  std::cout << "\n(expander-like families should shrink the random/consc "
               "gap — random walks mix fast there — while the orderings "
               "persist)\n";
  return 0;
}
