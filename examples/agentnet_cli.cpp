// agentnet_cli — run any paper experiment from the command line.
//
//   # mapping: 15 stigmergic conscientious agents on a fresh 300-node net
//   ./agentnet_cli scenario=mapping policy=conscientious stigmergy=filter ...
//                  population=15 runs=10
//
//   # routing: Fig-11-style oldest-node agents with visiting, plus traffic
//   ./agentnet_cli scenario=routing policy=oldest visiting=true ...
//                  population=100 history=10 traffic=true runs=5
//
//   # flow traffic over delay-reinforced ant routes (docs/TRAFFIC.md;
//   # AGENTNET_TRAFFIC_* env knobs supply workload/queue defaults)
//   ./agentnet_cli scenario=traffic mode=delay load=0.4 balance=true runs=5
//
//   # artefact export
//   ./agentnet_cli scenario=mapping export_net=net.txt export_dot=net.dot ...
//                  csv=knowledge.csv
//
// All keys are validated; a typo fails loudly instead of being ignored.
#include <fstream>
#include <iostream>

#include "agentnet.hpp"
#include "common/atomic_file.hpp"
#include "obs/obs.hpp"

using namespace agentnet;

namespace {

MappingPolicy parse_mapping_policy(const std::string& name) {
  if (name == "random") return MappingPolicy::kRandom;
  if (name == "conscientious") return MappingPolicy::kConscientious;
  if (name == "super") return MappingPolicy::kSuperConscientious;
  throw ConfigError("policy must be random|conscientious|super, got " + name);
}

RoutingPolicy parse_routing_policy(const std::string& name) {
  if (name == "random") return RoutingPolicy::kRandom;
  if (name == "oldest") return RoutingPolicy::kOldestNode;
  throw ConfigError("policy must be random|oldest, got " + name);
}

StigmergyMode parse_stigmergy(const std::string& name) {
  if (name == "off") return StigmergyMode::kOff;
  if (name == "filter") return StigmergyMode::kFilterFirst;
  if (name == "tiebreak") return StigmergyMode::kTieBreak;
  throw ConfigError("stigmergy must be off|filter|tiebreak, got " + name);
}

int run_mapping(Options& opts) {
  TargetEdgeParams net_params;
  net_params.geometry.node_count =
      static_cast<std::size_t>(opts.get_int("nodes", 300));
  net_params.target_edges = static_cast<std::size_t>(
      opts.get_int("edges", static_cast<std::int64_t>(
                                net_params.geometry.node_count * 14)));
  net_params.tolerance = opts.get_double("edge_tolerance", 0.02);
  const auto seed =
      static_cast<std::uint64_t>(opts.get_int("seed", 2010));

  MappingTaskConfig task;
  task.population = static_cast<int>(opts.get_int("population", 15));
  task.agent.policy =
      parse_mapping_policy(opts.get_string("policy", "conscientious"));
  task.agent.stigmergy = parse_stigmergy(opts.get_string("stigmergy", "off"));
  task.agent.randomness = opts.get_double("randomness", 0.0);
  task.communication = opts.get_bool("communication", true);
  task.stigmergy_horizon =
      static_cast<std::size_t>(opts.get_int("horizon", 0));
  task.stigmergy_capacity =
      static_cast<std::size_t>(opts.get_int("capacity", 1));
  // Chaos runs may never finish (agents keep dying); a bounded step budget
  // makes degradation sweeps terminate. The default is the task's own.
  task.max_steps = static_cast<std::size_t>(
      opts.get_int("max_steps", static_cast<std::int64_t>(task.max_steps)));
  const int runs = static_cast<int>(opts.get_int("runs", 10));
  const std::string export_net = opts.get_string("export_net", "");
  const std::string export_dot = opts.get_string("export_dot", "");
  const std::string csv = opts.get_string("csv", "");
  opts.finish();

  const GeneratedNetwork net = generate_target_edge_network(net_params, seed);
  std::printf("network: %zu nodes, %zu directed edges (seed %llu)\n",
              net.graph.node_count(), net.graph.edge_count(),
              static_cast<unsigned long long>(seed));
  if (!export_net.empty()) save_network_file(net, export_net);
  if (!export_dot.empty()) {
    AtomicFileWriter file(export_dot);
    file.stream() << to_dot(net);
    file.commit();
  }

  // Collect the merged per-run counters so CSV exports can carry them as a
  // `#` footer (topology upkeep and cache-hit totals included).
  obs::RunObs run_obs;
  obs::ObsConfig obs_config = obs::ObsConfig::from_env();
  obs_config.sink = &run_obs;
  const MappingSummary summary = run_mapping_experiment(
      net, task, runs, paper::kRunSeedBase, 0, obs_config);
  std::printf(
      "%d x %s%s agents: finishing time %.1f ± %.1f over %d runs"
      " (%d unfinished)\n",
      task.population, to_string(task.agent.policy),
      task.agent.stigmergy == StigmergyMode::kOff ? "" : " (stigmergic)",
      summary.finishing_time.empty() ? 0.0 : summary.finishing_time.mean(),
      confidence_halfwidth(summary.finishing_time), runs, summary.unfinished);
  if (!csv.empty()) {
    AtomicFileWriter file(csv);
    write_series_csv(file.stream(), {"knowledge_mean", "knowledge_stddev"},
                     {summary.knowledge.mean(), summary.knowledge.stddev()});
    obs::write_run_footer(file.stream(), run_obs, obs_config);
    file.commit();
    std::printf("knowledge series written to %s\n", csv.c_str());
  }
  return 0;
}

/// The latency, drop and flow line shared by the routing and traffic
/// scenarios' reports.
void print_traffic_details(const FlowTrafficStats& ts) {
  std::printf(
      "latency p50/p95/p99: %llu/%llu/%llu steps; drops: no-route %llu, "
      "link-down %llu, ttl %llu, queue-full %llu; flows %llu started, "
      "%llu completed\n",
      static_cast<unsigned long long>(ts.latency_quantile(0.5)),
      static_cast<unsigned long long>(ts.latency_quantile(0.95)),
      static_cast<unsigned long long>(ts.latency_quantile(0.99)),
      static_cast<unsigned long long>(ts.dropped_no_route),
      static_cast<unsigned long long>(ts.dropped_link_down),
      static_cast<unsigned long long>(ts.dropped_ttl),
      static_cast<unsigned long long>(ts.dropped_queue_full),
      static_cast<unsigned long long>(ts.flows_started),
      static_cast<unsigned long long>(ts.flows_completed));
}

GatewayPlacement parse_placement(const std::string& name) {
  if (name == "random") return GatewayPlacement::kRandom;
  if (name == "spread") return GatewayPlacement::kSpread;
  if (name == "perimeter") return GatewayPlacement::kPerimeter;
  throw ConfigError("placement must be random|spread|perimeter, got " +
                    name);
}

int run_routing(Options& opts) {
  RoutingScenarioParams scenario_params;
  scenario_params.node_count =
      static_cast<std::size_t>(opts.get_int("nodes", 250));
  scenario_params.gateway_count =
      static_cast<std::size_t>(opts.get_int("gateways", 12));
  scenario_params.gateway_placement =
      parse_placement(opts.get_string("placement", "random"));
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 2010));
  const std::string scenario_file = opts.get_string("scenario_file", "");
  const std::string export_scenario =
      opts.get_string("export_scenario", "");

  RoutingTaskConfig task;
  task.population = static_cast<int>(opts.get_int("population", 100));
  task.agent.policy =
      parse_routing_policy(opts.get_string("policy", "oldest"));
  task.agent.history_size =
      static_cast<std::size_t>(opts.get_int("history", 10));
  task.agent.communicate = opts.get_bool("visiting", false);
  task.agent.stigmergy = parse_stigmergy(opts.get_string("stigmergy", "off"));
  task.record_oracle = opts.get_bool("oracle", false);
  task.traffic = opts.get_bool("traffic", false);
  const int runs = static_cast<int>(opts.get_int("runs", 5));
  const std::string csv = opts.get_string("csv", "");
  opts.finish();

  const RoutingScenario scenario =
      scenario_file.empty() ? RoutingScenario(scenario_params, seed)
                            : load_scenario_file(scenario_file);
  if (!export_scenario.empty()) {
    save_scenario_file(scenario, export_scenario);
    std::printf("scenario written to %s\n", export_scenario.c_str());
  }
  obs::RunObs run_obs;
  obs::ObsConfig obs_config = obs::ObsConfig::from_env();
  obs_config.sink = &run_obs;
  const RoutingSummary summary = run_routing_experiment(
      scenario, task, runs, paper::kRunSeedBase, 0, obs_config);
  std::printf(
      "%d x %s agents%s%s: connectivity %.3f ± %.3f over %d runs\n",
      task.population, to_string(task.agent.policy),
      task.agent.communicate ? " + visiting" : "",
      task.agent.stigmergy == StigmergyMode::kOff ? "" : " + stigmergy",
      summary.mean_connectivity.mean(),
      confidence_halfwidth(summary.mean_connectivity), runs);
  if (task.traffic) {
    const FlowTrafficStats& ts = summary.traffic;
    std::printf(
        "traffic: generated %llu, delivered %llu, delivery %.3f over %d "
        "runs\n",
        static_cast<unsigned long long>(ts.generated),
        static_cast<unsigned long long>(ts.delivered), ts.delivery_ratio(),
        runs);
    print_traffic_details(ts);
  }
  if (!csv.empty()) {
    AtomicFileWriter file(csv);
    std::vector<std::string> names{"connectivity_mean", "connectivity_sd"};
    std::vector<std::vector<double>> series{summary.connectivity.mean(),
                                            summary.connectivity.stddev()};
    if (summary.oracle.runs() > 0) {
      names.push_back("oracle_mean");
      series.push_back(summary.oracle.mean());
    }
    write_series_csv(file.stream(), names, series);
    obs::write_run_footer(file.stream(), run_obs, obs_config);
    file.commit();
    std::printf("connectivity series written to %s\n", csv.c_str());
  }
  return 0;
}

int run_aco(Options& opts) {
  RoutingScenarioParams scenario_params;
  scenario_params.node_count =
      static_cast<std::size_t>(opts.get_int("nodes", 250));
  scenario_params.gateway_count =
      static_cast<std::size_t>(opts.get_int("gateways", 12));
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 2010));
  AntRoutingTaskConfig task;
  task.ants.launch_probability = opts.get_double("launch", 0.2);
  task.ants.evaporation = opts.get_double("evaporation", 0.02);
  const int runs = static_cast<int>(opts.get_int("runs", 5));
  opts.finish();

  const RoutingScenario scenario(scenario_params, seed);
  RunningStats conn, mb;
  for (const AntRoutingResult& result : replicate(
           {"aco", runs, paper::kRunSeedBase, scenario.node_count(),
            task.steps},
           task, [&](const AntRoutingTaskConfig& config, Rng rng) {
             return run_ant_routing_task(scenario, config, rng);
           })) {
    conn.add(result.mean_connectivity);
    mb.add(static_cast<double>(result.control_bytes) / 1e6);
  }
  std::printf(
      "ant colony (launch %.2f): connectivity %.3f ± %.3f, control %.2f MB "
      "over %d runs\n",
      task.ants.launch_probability, conn.mean(),
      confidence_halfwidth(conn), mb.mean(), runs);
  return 0;
}

int run_traffic(Options& opts) {
  RoutingScenarioParams scenario_params;
  scenario_params.node_count =
      static_cast<std::size_t>(opts.get_int("nodes", 250));
  scenario_params.gateway_count =
      static_cast<std::size_t>(opts.get_int("gateways", 12));
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 2010));

  TrafficTaskConfig task;
  task.workload = FlowWorkloadConfig::from_env();
  task.workload.offered_load =
      opts.get_double("load", task.workload.offered_load);
  task.queue = LinkQueueConfig::from_env();
  const std::string mode = opts.get_string("mode", "delay");
  if (mode == "hop") {
    task.ants.reinforcement = AntReinforcement::kHopCount;
  } else if (mode == "delay") {
    task.ants.reinforcement = AntReinforcement::kDelay;
  } else {
    throw ConfigError("mode must be hop|delay, got " + mode);
  }
  task.balance_gateways = opts.get_bool("balance", false);
  if (task.balance_gateways)
    task.balancer = GatewayBalancerConfig::from_env();
  const int runs = static_cast<int>(opts.get_int("runs", 5));
  opts.finish();

  const RoutingScenario scenario(scenario_params, seed);
  const TrafficSummary summary =
      run_traffic_experiment(scenario, task, runs, paper::kRunSeedBase);
  const FlowTrafficStats& ts = summary.traffic;
  std::printf(
      "ant routing (%s%s): offered %.3f, carried %.3f pkts/node/step, "
      "delivery %.3f over %d runs\n",
      mode.c_str(), task.balance_gateways ? "+balance" : "",
      summary.offered_load.mean(), summary.carried_load.mean(),
      ts.delivery_ratio(), runs);
  print_traffic_details(ts);
  return 0;
}

int run_dv(Options& opts) {
  RoutingScenarioParams scenario_params;
  scenario_params.node_count =
      static_cast<std::size_t>(opts.get_int("nodes", 250));
  scenario_params.gateway_count =
      static_cast<std::size_t>(opts.get_int("gateways", 12));
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 2010));
  DvRoutingTaskConfig task;
  task.population = static_cast<int>(opts.get_int("population", 100));
  task.agent.table_size =
      static_cast<std::size_t>(opts.get_int("table", 40));
  const int runs = static_cast<int>(opts.get_int("runs", 5));
  opts.finish();

  const RoutingScenario scenario(scenario_params, seed);
  RunningStats conn, mb;
  for (const DvRoutingTaskResult& result : replicate(
           {"dv", runs, paper::kRunSeedBase, scenario.node_count(),
            task.steps},
           task, [&](const DvRoutingTaskConfig& config, Rng rng) {
             return run_dv_routing_task(scenario, config, rng);
           })) {
    conn.add(result.mean_connectivity);
    mb.add(static_cast<double>(result.migration_bytes) / 1e6);
  }
  std::printf(
      "%d x DV agents (table %zu): connectivity %.3f ± %.3f, migration "
      "%.2f MB over %d runs\n",
      task.population, task.agent.table_size, conn.mean(),
      confidence_halfwidth(conn), mb.mean(), runs);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Options opts = Options::parse(argc, argv);
    const std::string scenario = opts.get_string("scenario", "mapping");
    if (scenario == "mapping") return run_mapping(opts);
    if (scenario == "routing") return run_routing(opts);
    if (scenario == "aco") return run_aco(opts);
    if (scenario == "traffic") return run_traffic(opts);
    if (scenario == "dv") return run_dv(opts);
    throw ConfigError("scenario must be mapping|routing|aco|traffic|dv, "
                      "got " + scenario);
  } catch (const Error& e) {
    std::cerr << "agentnet_cli: " << e.what() << "\n"
              << "see the header of examples/agentnet_cli.cpp for usage\n";
    return 2;
  }
}
