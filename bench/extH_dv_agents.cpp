// Extension H — the paper's overhead argument against related work, made
// measurable: distance-vector-carrying agents (MARP / ADV style, refs
// [10][11]) versus the paper's history+reverse-path agents, same scenario,
// same metric, overhead in bytes.
#include "adv/dv_agent.hpp"
#include "bench_util.hpp"

using namespace agentnet;

int main() {
  const int runs = bench_runs(6);
  bench::print_header(
      "Ext H — DV-carrying agents (related work) vs the paper's agents",
      "the paper claims rivals pay ~4x the overhead for similar "
      "performance",
      runs);

  Table table({"agent design", "connectivity", "ci95", "MB moved",
               "conn per MB"});

  // The paper's agents at two history sizes.
  for (std::size_t history : {10u, 40u}) {
    auto task = bench::paper_routing_task();
    task.population = 100;
    task.agent.policy = RoutingPolicy::kOldestNode;
    task.agent.history_size = history;
    RunningStats conn, mb;
    for (const auto& result :
         bench::scenario_runs("routing", task, runs, run_routing_task)) {
      conn.add(result.mean_connectivity);
      mb.add(static_cast<double>(result.migration_bytes) / 1e6);
    }
    char label[64];
    std::snprintf(label, sizeof label, "paper: oldest-node, history %zu",
                  history);
    table.add_row({std::string(label), conn.mean(),
                   confidence_halfwidth(conn), mb.mean(),
                   conn.mean() / mb.mean()});
  }

  // DV agents at two table sizes.
  for (std::size_t table_size : {40u, 100u}) {
    DvRoutingTaskConfig cfg;
    cfg.population = 100;
    cfg.steps = paper::kRoutingSteps;
    cfg.measure_from = paper::kRoutingMeasureFrom;
    cfg.agent.table_size = table_size;
    RunningStats conn, mb;
    for (const auto& result :
         bench::scenario_runs("dv", cfg, runs, run_dv_routing_task)) {
      conn.add(result.mean_connectivity);
      mb.add(static_cast<double>(result.migration_bytes) / 1e6);
    }
    char label[64];
    std::snprintf(label, sizeof label, "related: DV agent, table %zu",
                  table_size);
    table.add_row({std::string(label), conn.mean(),
                   confidence_halfwidth(conn), mb.mean(),
                   conn.mean() / mb.mean()});
  }

  bench::finish_table("extH", table);
  std::cout << "\n(conn per MB is the efficiency the paper argues for: its "
               "lightweight agents should dominate that column)\n";
  return 0;
}
