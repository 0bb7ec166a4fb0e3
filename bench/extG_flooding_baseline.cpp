// Extension G — mapping: mobile agents vs conventional link-state flooding.
// The paper motivates agents by contrast with "current systems"; this bench
// quantifies the contrast on the paper's own 300-node network: time until
// everyone holds the full map, and bytes on the air to get there. Flooding
// needs every node to run a protocol; agents need the nodes to do nothing.
#include "bench_util.hpp"
#include "flooding/link_state.hpp"

using namespace agentnet;

int main() {
  const int runs = bench_runs(6);
  bench::print_header(
      "Ext G — mapping via agents vs link-state flooding",
      "flooding converges in O(diameter) steps but costs O(n·m) messages "
      "and a protocol stack on every node",
      runs);
  const auto& net = bench::mapping_network();

  Table table({"system", "time to full map", "MB on air", "nodes run code"});

  // Link-state flooding (deterministic — one run suffices).
  {
    LinkStateFlooding flood(net.graph.node_count(), {});
    std::size_t steps = 0;
    while (steps < 1000 && !flood.converged(net.graph)) {
      flood.step(net.graph, steps);
      ++steps;
    }
    table.add_row({std::string("link-state flooding"),
                   static_cast<std::int64_t>(steps),
                   static_cast<double>(flood.bytes_sent()) / 1e6,
                   std::string("yes")});
  }

  // Mobile-agent teams.
  struct Row {
    const char* label;
    int population;
    StigmergyMode mode;
  };
  const Row rows[] = {
      {"15 conscientious agents", 15, StigmergyMode::kOff},
      {"15 stigmergic agents", 15, StigmergyMode::kFilterFirst},
      {"100 stigmergic agents", 100, StigmergyMode::kFilterFirst},
  };
  for (const auto& row : rows) {
    MappingTaskConfig task;
    task.population = row.population;
    task.agent = {MappingPolicy::kConscientious, row.mode};
    task.record_series = false;
    RunningStats finish, mb;
    for (const auto& result :
         bench::mapping_runs(task, runs, net.graph.node_count(),
                             [&] { return World::frozen(net); })) {
      if (!result.finished) continue;
      finish.add(static_cast<double>(result.finishing_time));
      mb.add(static_cast<double>(result.migration_bytes) / 1e6);
    }
    table.add_row({std::string(row.label),
                   static_cast<std::int64_t>(finish.mean() + 0.5), mb.mean(),
                   std::string("no")});
  }

  bench::finish_table("extG", table);
  std::cout << "\n(flooding wins time by O(diameter) vs the agents' cover "
               "time, but refloods every LSA on every link, so the agents "
               "are byte-competitive; their real price is latency — and the "
               "prize is that nodes need no protocol stack at all)\n";
  return 0;
}
