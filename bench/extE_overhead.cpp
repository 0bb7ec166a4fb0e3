// Extension E — agent overhead accounting. The paper argues comparisons
// must hold overhead fixed ("stigmergic versus non stigmergic having
// identical overheads") and dismisses rivals that ship 4-5x more state per
// hop. This bench meters actual migration traffic (serialized agent size x
// moves) for each design and reports cost per unit of performance.
#include "bench_util.hpp"

using namespace agentnet;

int main() {
  const int runs = bench_runs(6);
  bench::print_header(
      "Ext E — migration overhead per design",
      "stigmergy adds ~zero bytes; history size is the routing overhead "
      "knob",
      runs);

  std::cout << "mapping (300 nodes, population 15):\n";
  {
    const auto& net = bench::mapping_network();
    struct V {
      const char* label;
      MappingPolicy policy;
      StigmergyMode mode;
    };
    const V variants[] = {
        {"random", MappingPolicy::kRandom, StigmergyMode::kOff},
        {"conscientious", MappingPolicy::kConscientious, StigmergyMode::kOff},
        {"conscientious + stigmergy", MappingPolicy::kConscientious,
         StigmergyMode::kFilterFirst},
        {"super-conscientious", MappingPolicy::kSuperConscientious,
         StigmergyMode::kOff},
    };
    Table table({"design", "finish", "MB moved", "MB per agent-step"});
    for (const auto& v : variants) {
      MappingTaskConfig task;
      task.population = 15;
      task.agent = {v.policy, v.mode};
      task.record_series = false;
      RunningStats finish, megabytes, per_step;
      for (const auto& result :
           bench::mapping_runs(task, runs, net.graph.node_count(),
                               [&] { return World::frozen(net); })) {
        if (!result.finished) continue;
        finish.add(static_cast<double>(result.finishing_time));
        const double mb =
            static_cast<double>(result.migration_bytes) / 1e6;
        megabytes.add(mb);
        per_step.add(mb / static_cast<double>(result.finishing_time * 15));
      }
      table.add_row({std::string(v.label), finish.mean(), megabytes.mean(),
                     per_step.mean()});
    }
    bench::finish_table("extE_mapping", table);
  }

  std::cout << "\nrouting (250 nodes, population 100, 300 steps):\n";
  {
    struct V {
      const char* label;
      std::size_t history;
      StigmergyMode mode;
    };
    const V variants[] = {
        {"oldest-node, history 5", 5, StigmergyMode::kOff},
        {"oldest-node, history 10", 10, StigmergyMode::kOff},
        {"oldest-node, history 10 + stigmergy", 10,
         StigmergyMode::kFilterFirst},
        {"oldest-node, history 40", 40, StigmergyMode::kOff},
    };
    Table table({"design", "connectivity", "MB moved",
                 "connectivity per MB"});
    for (const auto& v : variants) {
      auto task = bench::paper_routing_task();
      task.population = 100;
      task.agent.policy = RoutingPolicy::kOldestNode;
      task.agent.history_size = v.history;
      task.agent.stigmergy = v.mode;
      RunningStats conn, megabytes;
      for (const auto& result :
           bench::scenario_runs("routing", task, runs, run_routing_task)) {
        conn.add(result.mean_connectivity);
        megabytes.add(static_cast<double>(result.migration_bytes) / 1e6);
      }
      table.add_row({std::string(v.label), conn.mean(), megabytes.mean(),
                     conn.mean() / megabytes.mean()});
    }
    bench::finish_table("extE_routing", table);
  }
  std::cout << "\n(stigmergic rows should match their plain counterparts in "
               "MB moved — footprints live on nodes, not in agents)\n";
  return 0;
}
