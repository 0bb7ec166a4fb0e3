// Extension C — throughput and latency over stigmergetic routes. The
// paper's connectivity metric is a proxy for "how many nodes have access
// to the outside world"; this bench loads the network with flow traffic
// (docs/TRAFFIC.md) and reports what the proxy buys under load: offered vs
// carried load, delivery ratio, the drop taxonomy, and exact p50/p95/p99
// latency — comparing hop-count pheromone reinforcement against AntNet's
// delay-based reinforcement (with and without gateway balancing) at low
// and high offered load. Delay-based reinforcement should win the latency
// tail at high load: it routes around queues hop count cannot see.
#include "bench_util.hpp"

#include "experiments/traffic_experiments.hpp"

using namespace agentnet;

int main() {
  const int runs = bench_runs(6);
  bench::print_header(
      "Ext C — flow traffic over ant-maintained routes",
      "AntNet (Di Caro & Dorigo): delay-aware stigmergy beats shortest-path "
      "metrics under load",
      runs);
  const auto& scenario = bench::routing_scenario();

  struct Setting {
    const char* label;
    double offered_load;
    AntReinforcement reinforcement;
    bool balance;
  };
  constexpr double low = 0.05;
  constexpr double high = 0.3;
  const Setting settings[] = {
      {"hop-count, low load", low, AntReinforcement::kHopCount, false},
      {"delay, low load", low, AntReinforcement::kDelay, false},
      {"hop-count, high load", high, AntReinforcement::kHopCount, false},
      {"delay, high load", high, AntReinforcement::kDelay, false},
      {"delay+balance, high load", high, AntReinforcement::kDelay, true},
  };

  Table table({"setting", "offered", "carried", "delivery", "drop nr",
               "drop ld", "drop ttl", "drop qf", "p50", "p95", "p99"});
  for (const auto& s : settings) {
    TrafficTaskConfig task;
    task.steps = paper::kRoutingSteps;
    task.measure_from = paper::kRoutingMeasureFrom;
    task.workload = FlowWorkloadConfig::from_env();
    task.workload.offered_load = s.offered_load;
    task.queue = LinkQueueConfig::from_env();
    task.ants.reinforcement = s.reinforcement;
    task.balance_gateways = s.balance;

    const TrafficSummary summary = run_traffic_experiment(
        scenario, task, runs, paper::kRunSeedBase);
    const FlowTrafficStats& ts = summary.traffic;
    const auto frac = [&](std::uint64_t n) {
      return ts.generated == 0 ? 0.0
                               : static_cast<double>(n) /
                                     static_cast<double>(ts.generated);
    };
    table.add_row({std::string(s.label), summary.offered_load.mean(),
                   summary.carried_load.mean(), ts.delivery_ratio(),
                   frac(ts.dropped_no_route), frac(ts.dropped_link_down),
                   frac(ts.dropped_ttl), frac(ts.dropped_queue_full),
                   static_cast<std::int64_t>(ts.latency_quantile(0.5)),
                   static_cast<std::int64_t>(ts.latency_quantile(0.95)),
                   static_cast<std::int64_t>(ts.latency_quantile(0.99))});
  }
  bench::finish_table("extC", table);
  std::cout << "\n(offered/carried in packets per node per step over the "
               "converged window; latency percentiles in steps, exact from "
               "the merged integer histogram — bit-identical at any "
               "AGENTNET_THREADS; drop columns are fractions of generated: "
               "nr = no route, ld = link down, qf = queue full)\n";
  return 0;
}
