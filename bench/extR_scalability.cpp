// Extension R — engineering scalability. The paper stops at 300 nodes;
// this bench scales the routing scenario from 100 to 1000 nodes (agent
// population and gateways scaled proportionally, arena scaled to keep
// density constant) and reports connectivity plus wall-time per simulated
// step, showing the simulator itself is not the bottleneck.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>

#include "bench_util.hpp"
#include "energy/battery.hpp"
#include "mobility/mobility.hpp"
#include "radio/range_model.hpp"
#include "sim/world.hpp"

using namespace agentnet;

int main() {
  const int runs = bench_runs(3);
  bench::print_header(
      "Ext R — scalability of the routing scenario",
      "constant-density scaling: connectivity should hold roughly steady; "
      "step cost should grow near-linearly",
      runs);

  Table table({"nodes", "gateways", "agents", "connectivity",
               "us per step"});
  for (std::size_t nodes : {100u, 250u, 500u, 1000u}) {
    const double scale =
        std::sqrt(static_cast<double>(nodes) / 250.0);  // constant density
    RoutingScenarioParams params;
    params.node_count = nodes;
    params.gateway_count = std::max<std::size_t>(2, nodes * 12 / 250);
    params.bounds = {{0.0, 0.0}, {1000.0 * scale, 1000.0 * scale}};
    const RoutingScenario scenario(params, paper::kRoutingScenarioSeed);

    auto task = bench::paper_routing_task();
    task.population = static_cast<int>(nodes * 100 / 250);
    task.agent.history_size = 10;

    RunningStats conn;
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < runs; ++r) {
      conn.add(run_routing_task(
                   scenario, task,
                   Rng(paper::kRunSeedBase + static_cast<std::uint64_t>(r)))
                   .mean_connectivity);
    }
    const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    const double us_per_step =
        static_cast<double>(elapsed) /
        static_cast<double>(runs * static_cast<int>(task.steps));
    table.add_row({static_cast<std::int64_t>(nodes),
                   static_cast<std::int64_t>(params.gateway_count),
                   static_cast<std::int64_t>(task.population), conn.mean(),
                   us_per_step});
  }
  bench::finish_table("extR", table);
  std::cout << "\n(step cost includes mobility, battery, incremental "
               "topology upkeep, all agent phases and the connectivity "
               "walk)\n";

  // --- Second table: world-advance-only scaling into the million-node
  // regime (docs/PERFORMANCE.md, "Topology upkeep"). No agents here — this
  // isolates the simulator's topology upkeep. The 1M row is gated behind
  // AGENTNET_FULL=1 (construction alone takes a while at that size).
  Table scale({"nodes", "steps per sec", "bytes per node"});
  std::vector<std::size_t> sizes{10'000, 100'000};
  if (bench_full()) sizes.push_back(1'000'000);
  for (const std::size_t nodes : sizes) {
    Rng rng(4242);
    const double side = 1000.0 * std::sqrt(static_cast<double>(nodes) / 250.0);
    const Aabb arena{{0.0, 0.0}, {side, side}};
    std::vector<Vec2> positions = random_positions(nodes, arena, rng);
    std::vector<double> ranges =
        heterogeneous_ranges(nodes, 110.0 * 0.85, 110.0 * 1.15, rng);
    const std::size_t movers = std::max<std::size_t>(16, nodes / 1000);
    std::vector<bool> mobile(nodes, false);
    for (std::size_t i = 0; i < movers; ++i) {
      mobile[i] = true;
      positions[i] = {rng.uniform_real(0.0, side / 8.0),
                      rng.uniform_real(0.0, side / 8.0)};
    }
    auto mobility = std::make_unique<RandomDirectionMobility>(
        arena, mobile, RandomDirectionMobility::Params{0.5, 3.0, 0.05},
        rng.fork(0x30B));
    World world(arena, std::move(positions),
                RadioModel(std::move(ranges), RangeScaling{0.6}),
                BatteryBank(nodes, mobile, BatteryParams{1.0, 0.001}),
                std::move(mobility), LinkPolicy::kSymmetricAnd);
    const int steps = nodes >= 1'000'000 ? 8 : 32;
    for (int i = 0; i < 4; ++i) world.advance();  // warm buffers
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < steps; ++i) world.advance();
    const double us = static_cast<double>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    scale.add_row({static_cast<std::int64_t>(nodes),
                   1e6 * static_cast<double>(steps) / std::max(us, 1.0),
                   static_cast<double>(world.memory_bytes()) /
                       static_cast<double>(nodes)});
  }
  bench::finish_table("extR_scale", scale);
  std::cout << "\n(world advance only — mobility, battery, topology upkeep; "
               "a 0.1% mobile convoy in a static mains field; set "
               "AGENTNET_FULL=1 for the 1M-node row)\n";
  return 0;
}
