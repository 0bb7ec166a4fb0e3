// Extension Q — how fast does a finished map rot? The paper's environment
// section warns that "the topology knowledge of the network become[s]
// invalid after awhile, such that we need to fire up the agents again".
// This bench maps a battery-degrading network once, then freezes the team
// and tracks the map's validity against the live topology — the re-fire
// schedule implied by the paper, quantified.
#include "bench_util.hpp"

using namespace agentnet;

namespace {

World decaying_world(const GeneratedNetwork& net, double drain,
                     double battery_fraction_of_nodes, Rng& rng) {
  const std::size_t n = net.positions.size();
  std::vector<bool> on_battery(n, false);
  const auto k = static_cast<std::size_t>(
      battery_fraction_of_nodes * static_cast<double>(n));
  for (std::size_t idx : rng.sample_indices(n, k)) on_battery[idx] = true;
  BatteryBank batteries(n, on_battery, BatteryParams{1.0, drain});
  return World(net.bounds, net.positions,
               RadioModel(net.base_ranges, RangeScaling{0.55}),
               std::move(batteries), std::make_unique<StationaryMobility>(),
               net.policy);
}

}  // namespace

int main() {
  const int runs = bench_runs(6);
  bench::print_header(
      "Ext Q — map staleness under battery decay",
      "a completed map loses validity as links rot; this is the re-fire "
      "interval the paper's architecture implies",
      runs);
  const auto& net = bench::mapping_network();
  const double drain = 0.0015;  // ~45% charge gone over 300 steps

  Table table({"steps after mapping", "recall", "precision", "ci95",
               "live links"});
  RunningStats validity_at[7];
  RunningStats precision_at[7];
  RunningStats links_at[7];
  const std::size_t checkpoints[] = {0, 25, 50, 100, 150, 200, 300};

  for (int r = 0; r < runs; ++r) {
    Rng rng(paper::kRunSeedBase + static_cast<std::uint64_t>(r));
    World world = decaying_world(net, drain, 0.4, rng);

    // Map while the network decays (the realistic setting).
    StigmergyBoard board(world.node_count());
    EdgeIndex index(world.graph());
    std::vector<MappingAgent> agents;
    for (int a = 0; a < 15; ++a)
      agents.emplace_back(a, static_cast<NodeId>(
                                 rng.index(world.node_count())),
                          index,
                          MappingAgentConfig{MappingPolicy::kConscientious,
                                             StigmergyMode::kFilterFirst},
                          rng.fork(a + 1));
    // Run until the team's pooled map covers 99% of the live topology.
    for (std::size_t t = 0; t < 2000; ++t) {
      // The world advances, so register what each agent is about to sense.
      for (const auto& agent : agents)
        index.add_row(agent.location(),
                      world.graph().out_neighbors(agent.location()));
      for (auto& agent : agents) agent.sense(world.graph(), t);
      double best = 0.0;
      for (auto& agent : agents)
        best = std::max(best,
                        static_cast<double>(agent.knowledge()
                                                .known_edge_count_in(
                                                    world.graph())) /
                            static_cast<double>(world.graph().edge_count()));
      if (best >= 0.99) break;
      for (auto& agent : agents) {
        const NodeId target = agent.decide(world.graph(), board, t);
        if (target != agent.location())
          board.stamp(agent.location(), target, t);
        agent.move_to(target);
      }
      world.advance();
    }
    // Freeze: best-informed agent's map vs the decaying truth.
    const MappingAgent* best_agent = &agents[0];
    for (const auto& agent : agents)
      if (agent.knowledge().known_edge_count() >
          best_agent->knowledge().known_edge_count())
        best_agent = &agent;
    for (std::size_t c = 0; c < 7; ++c) {
      const Graph& truth = world.graph();
      const auto still_true =
          best_agent->knowledge().known_edge_count_in(truth);
      // Recall: how much of the live topology the frozen map covers.
      validity_at[c].add(static_cast<double>(still_true) /
                         static_cast<double>(truth.edge_count()));
      // Precision: how much of the frozen map is still real — THIS is what
      // rots under battery decay (the map asserts links that have died).
      precision_at[c].add(
          static_cast<double>(still_true) /
          static_cast<double>(best_agent->knowledge().known_edge_count()));
      links_at[c].add(static_cast<double>(truth.edge_count()));
      if (c + 1 < 7) {
        for (std::size_t s = checkpoints[c]; s < checkpoints[c + 1]; ++s)
          world.advance();
      }
    }
  }

  for (std::size_t c = 0; c < 7; ++c) {
    table.add_row({static_cast<std::int64_t>(checkpoints[c]),
                   validity_at[c].mean(), precision_at[c].mean(),
                   confidence_halfwidth(precision_at[c]),
                   links_at[c].mean()});
  }
  bench::finish_table("extQ", table);
  std::cout << "\n(recall = live links covered by the frozen map; precision "
               "= map links still alive. Battery decay only removes links, "
               "so recall holds while precision rots — a router using the "
               "stale map forwards into dead air. Falling precision is the "
               "paper's cue to re-fire the agents.)\n";
  return 0;
}
