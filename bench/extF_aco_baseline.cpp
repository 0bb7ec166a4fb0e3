// Extension F — the related-work baseline: AntHocNet-style ant-colony
// routing (Di Caro/Ducatelle/Gambardella, the paper's ref [9]) versus the
// paper's mobile-agent designs, on the identical scenario and metric, with
// control overhead in bytes for both systems.
#include "aco/ant_routing_task.hpp"
#include "bench_util.hpp"

using namespace agentnet;

int main() {
  const int runs = bench_runs(6);
  bench::print_header(
      "Ext F — ant-colony baseline vs mobile agents",
      "pheromone routing is competitive but pays per-packet path sampling; "
      "mobile agents amortise state in the walker",
      runs);

  Table table({"system", "connectivity", "ci95", "control MB"});

  // Mobile-agent designs (migration traffic = overhead).
  struct AgentRow {
    const char* label;
    RoutingPolicy policy;
    StigmergyMode mode;
    int population;
  };
  const AgentRow agent_rows[] = {
      {"mobile agents: oldest-node x100", RoutingPolicy::kOldestNode,
       StigmergyMode::kOff, 100},
      {"mobile agents: oldest-node+stig x100", RoutingPolicy::kOldestNode,
       StigmergyMode::kFilterFirst, 100},
      {"mobile agents: oldest-node x25", RoutingPolicy::kOldestNode,
       StigmergyMode::kOff, 25},
  };
  for (const auto& row : agent_rows) {
    auto task = bench::paper_routing_task();
    task.population = row.population;
    task.agent.policy = row.policy;
    task.agent.history_size = 10;
    task.agent.stigmergy = row.mode;
    RunningStats conn, mb;
    for (const auto& result :
         bench::scenario_runs("routing", task, runs, run_routing_task)) {
      conn.add(result.mean_connectivity);
      mb.add(static_cast<double>(result.migration_bytes) / 1e6);
    }
    table.add_row({std::string(row.label), conn.mean(),
                   confidence_halfwidth(conn), mb.mean()});
  }

  // Ant-colony settings: launch rate is the ants' population knob.
  for (double launch : {0.05, 0.2, 0.5}) {
    AntRoutingTaskConfig cfg;
    cfg.steps = paper::kRoutingSteps;
    cfg.measure_from = paper::kRoutingMeasureFrom;
    cfg.ants.launch_probability = launch;
    RunningStats conn, mb;
    for (const auto& result :
         bench::scenario_runs("aco", cfg, runs, run_ant_routing_task)) {
      conn.add(result.mean_connectivity);
      mb.add(static_cast<double>(result.control_bytes) / 1e6);
    }
    char label[64];
    std::snprintf(label, sizeof label, "ant colony: launch p=%.2f", launch);
    table.add_row({std::string(label), conn.mean(),
                   confidence_halfwidth(conn), mb.mean()});
  }

  bench::finish_table("extF", table);
  std::cout << "\n(control MB = agent migrations x serialized size, or ant "
               "hops x ant size — the same yardstick)\n";
  return 0;
}
