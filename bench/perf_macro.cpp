// Macro benchmarks (google-benchmark): whole-world steps/sec for the three
// regimes the incremental topology path targets, each in Full and
// Incremental pairs sharing a name stem. tools/bench_gate reads
// items_per_second off both and reports/gates the Incremental/Full speedup
// (routing ≥2×, scale ≥5× by default; mapping-static is informational —
// both modes skip rebuilds entirely when nothing moves).
//
// Worlds are built directly with RandomDirectionMobility rather than the
// scenarios' TraceMobility: a recorded trace freezes once playback ends,
// which would silently turn a long timing run into the static case.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <vector>

#include "aco/ant_routing.hpp"
#include "common/agent_parallel.hpp"
#include "common/rng.hpp"
#include "core/routing_task.hpp"
#include "energy/battery.hpp"
#include "experiments/paper.hpp"
#include "experiments/routing_experiments.hpp"
#include "geom/vec2.hpp"
#include "mobility/mobility.hpp"
#include "net/generators.hpp"
#include "net/metrics.hpp"
#include "obs/manifest.hpp"
#include "radio/range_model.hpp"
#include "sim/world.hpp"
#include "traffic/flow_traffic.hpp"

namespace agentnet {
namespace {

struct MacroParams {
  std::size_t node_count = 250;
  double mobile_fraction = 0.5;
  double side = 1000.0;  ///< Square arena edge length.
  std::uint64_t seed = 2010;
};

/// A routing-style world (heterogeneous battery-backed radios, paper
/// movement parameters) with never-ending random-direction motion.
World make_macro_world(const MacroParams& p, bool incremental) {
  Rng rng(p.seed);
  const Aabb bounds{{0.0, 0.0}, {p.side, p.side}};
  std::vector<Vec2> positions = random_positions(p.node_count, bounds, rng);
  std::vector<double> ranges =
      heterogeneous_ranges(p.node_count, 110.0 * 0.85, 110.0 * 1.15, rng);
  std::vector<bool> mobile(p.node_count, false);
  const auto mobile_count = static_cast<std::size_t>(
      std::llround(p.mobile_fraction * static_cast<double>(p.node_count)));
  for (std::size_t i = 0; i < mobile_count; ++i) mobile[i] = true;
  auto mobility = std::make_unique<RandomDirectionMobility>(
      bounds, mobile, RandomDirectionMobility::Params{0.5, 3.0, 0.05},
      rng.fork(0x30B));
  BatteryBank batteries(p.node_count, mobile, BatteryParams{1.0, 0.001});
  World world(bounds, std::move(positions),
              RadioModel(std::move(ranges), RangeScaling{0.6}),
              std::move(batteries), std::move(mobility),
              LinkPolicy::kSymmetricAnd);
  world.set_incremental_topology(incremental);
  return world;
}

void advance_loop(benchmark::State& state, World world) {
  for (int i = 0; i < 16; ++i) world.advance();  // warm every buffer
  for (auto _ : state) {
    world.advance();
    benchmark::DoNotOptimize(world.graph().edge_count());
    benchmark::DoNotOptimize(world.epoch());
  }
  state.SetItemsProcessed(state.iterations());  // items/sec == steps/sec
}

// --- Mapping regime: static sensor field, nothing ever moves. Both modes
// --- detect the empty dirty set and skip all topology work.
void BM_MappingStaticAdvanceFull(benchmark::State& state) {
  MacroParams p;
  p.node_count = 100;
  p.mobile_fraction = 0.0;
  p.side = 632.0;  // ≈250-node paper density at n=100
  advance_loop(state, make_macro_world(p, false));
}
BENCHMARK(BM_MappingStaticAdvanceFull);

void BM_MappingStaticAdvanceIncremental(benchmark::State& state) {
  MacroParams p;
  p.node_count = 100;
  p.mobile_fraction = 0.0;
  p.side = 632.0;
  advance_loop(state, make_macro_world(p, true));
}
BENCHMARK(BM_MappingStaticAdvanceIncremental);

// --- Routing regime: the paper's dynamic network, n=250 with half the
// --- nodes mobile. Every step dirties ~125 nodes; the incremental win is
// --- bounded but must stay ≥2×.
void BM_RoutingAdvanceFull(benchmark::State& state) {
  advance_loop(state, make_macro_world(MacroParams{}, false));
}
BENCHMARK(BM_RoutingAdvanceFull);

void BM_RoutingAdvanceIncremental(benchmark::State& state) {
  advance_loop(state, make_macro_world(MacroParams{}, true));
}
BENCHMARK(BM_RoutingAdvanceIncremental);

// --- Scalability regime: n=2000 mostly static (5% mobile) at the same
// --- spatial density (side scales with sqrt(n)). Full rebuilds touch all
// --- 2000 rows for ~100 movers; incremental must win ≥5×.
MacroParams scale_params() {
  MacroParams p;
  p.node_count = 2000;
  p.mobile_fraction = 0.05;
  p.side = 1000.0 * std::sqrt(2000.0 / 250.0);  // ≈2828: same density
  return p;
}

void BM_ScaleAdvanceFull(benchmark::State& state) {
  advance_loop(state, make_macro_world(scale_params(), false));
}
BENCHMARK(BM_ScaleAdvanceFull);

void BM_ScaleAdvanceIncremental(benchmark::State& state) {
  advance_loop(state, make_macro_world(scale_params(), true));
}
BENCHMARK(BM_ScaleAdvanceIncremental);

// --- Million-node regime: Flat / Sharded pairs at n=100k and n=1M. A huge
// --- mains-powered static sensor field with a small battery-powered mobile
// --- convoy (0.1% of nodes, clustered so dirty tiles stay localised) at
// --- the same spatial density. The flat path refreezes the whole O(n+E)
// --- CSR on every epoch change; the sharded path patches only the touched
// --- rows, so the within-run Sharded/Flat ratio is the tentpole's win and
// --- tools/bench_gate enforces a floor on it. Each benchmark also reports
// --- bytes_per_node (World::memory_bytes() / n) for the memory story.
World make_scale_world(std::size_t node_count, bool sharded) {
  // Pin the mode via the env knob so construction never builds the other
  // mode's structures first (auto mode would shard everything ≥4096).
  setenv("AGENTNET_TOPO_SHARD", sharded ? "1" : "0", 1);
  Rng rng(4242);
  const double side =
      1000.0 * std::sqrt(static_cast<double>(node_count) / 250.0);
  const Aabb bounds{{0.0, 0.0}, {side, side}};
  std::vector<Vec2> positions = random_positions(node_count, bounds, rng);
  std::vector<double> ranges =
      heterogeneous_ranges(node_count, 110.0 * 0.85, 110.0 * 1.15, rng);
  const std::size_t movers = std::max<std::size_t>(16, node_count / 1000);
  std::vector<bool> mobile(node_count, false);
  // Convoy: movers clustered in a corner box an eighth of the arena wide.
  const Aabb convoy{{0.0, 0.0}, {side / 8.0, side / 8.0}};
  for (std::size_t i = 0; i < movers; ++i) {
    mobile[i] = true;
    positions[i] = {rng.uniform_real(convoy.lo.x, convoy.hi.x),
                    rng.uniform_real(convoy.lo.y, convoy.hi.y)};
  }
  auto mobility = std::make_unique<RandomDirectionMobility>(
      bounds, mobile, RandomDirectionMobility::Params{0.5, 3.0, 0.05},
      rng.fork(0x30B));
  BatteryBank batteries(node_count, mobile, BatteryParams{1.0, 0.001});
  World world(bounds, std::move(positions),
              RadioModel(std::move(ranges), RangeScaling{0.6}),
              std::move(batteries), std::move(mobility),
              LinkPolicy::kSymmetricAnd);
  unsetenv("AGENTNET_TOPO_SHARD");
  return world;
}

void scale_advance_loop(benchmark::State& state, std::size_t node_count,
                        bool sharded) {
  World world = make_scale_world(node_count, sharded);
  state.counters["bytes_per_node"] = benchmark::Counter(
      static_cast<double>(world.memory_bytes()) /
      static_cast<double>(node_count));
  advance_loop(state, std::move(world));
}

// Fixed iteration counts: google-benchmark's calibration would otherwise
// re-run the (expensive to construct) million-node worlds several times.
void BM_Scale100kAdvanceFlat(benchmark::State& state) {
  scale_advance_loop(state, 100'000, false);
}
BENCHMARK(BM_Scale100kAdvanceFlat)->Iterations(32);

void BM_Scale100kAdvanceSharded(benchmark::State& state) {
  scale_advance_loop(state, 100'000, true);
}
BENCHMARK(BM_Scale100kAdvanceSharded)->Iterations(32);

void BM_Scale1MAdvanceFlat(benchmark::State& state) {
  scale_advance_loop(state, 1'000'000, false);
}
BENCHMARK(BM_Scale1MAdvanceFlat)->Iterations(8);

void BM_Scale1MAdvanceSharded(benchmark::State& state) {
  scale_advance_loop(state, 1'000'000, true);
}
BENCHMARK(BM_Scale1MAdvanceSharded)->Iterations(8);

// --- Agent-engine regime: Serial / ParallelAgents pairs sharing a stem.
// --- The intra-run engine (AGENTNET_AGENT_THREADS) fans the per-step
// --- agent phases and the per-root measurement walks over the shared
// --- pool; outputs are bit-identical by contract, so the pair's only
// --- observable is the steps/sec ratio, which tools/bench_gate floors —
// --- but only when the host has more than one CPU (num_cpus in the
// --- benchmark context), since a single-core pool can only add overhead.
void dense_routing_task_loop(benchmark::State& state, std::size_t threads) {
  RoutingScenarioParams params;
  params.trace_steps = 48;
  const RoutingScenario scenario(params, 2027);
  RoutingTaskConfig task;
  task.population = 250;  // dense team: one agent per node on average
  task.agent.communicate = true;
  task.steps = 32;
  task.measure_from = 16;
  task.agent_parallel.threads = threads;
  for (auto _ : state) {
    const auto result = run_routing_task(scenario, task, Rng(7));
    benchmark::DoNotOptimize(result.mean_connectivity);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(task.steps));
}

void BM_AgentsDenseRoutingTaskSerial(benchmark::State& state) {
  dense_routing_task_loop(state, 1);
}
BENCHMARK(BM_AgentsDenseRoutingTaskSerial)
    ->Iterations(8)
    ->Unit(benchmark::kMillisecond);

void BM_AgentsDenseRoutingTaskParallelAgents(benchmark::State& state) {
  dense_routing_task_loop(state, 0);  // 0 = one worker per hardware thread
}
BENCHMARK(BM_AgentsDenseRoutingTaskParallelAgents)
    ->Iterations(8)
    ->Unit(benchmark::kMillisecond);

// --- Measurement at scale: all-pairs BFS (mean shortest path) on the
// --- n=2000 world, the embarrassingly parallel per-root fan-out the
// --- engine accelerates best.
void scale_measure_loop(benchmark::State& state, std::size_t threads) {
  AgentParallelConfig config;
  config.threads = threads;
  const AgentParallel par(config);
  World world = make_macro_world(scale_params(), true);
  for (int i = 0; i < 4; ++i) world.advance();
  for (auto _ : state)
    benchmark::DoNotOptimize(mean_shortest_path(world.graph(), par));
  state.SetItemsProcessed(state.iterations());
}

void BM_AgentsScaleMeasureSerial(benchmark::State& state) {
  scale_measure_loop(state, 1);
}
BENCHMARK(BM_AgentsScaleMeasureSerial)
    ->Iterations(8)
    ->Unit(benchmark::kMillisecond);

void BM_AgentsScaleMeasureParallelAgents(benchmark::State& state) {
  scale_measure_loop(state, 0);
}
BENCHMARK(BM_AgentsScaleMeasureParallelAgents)
    ->Iterations(8)
    ->Unit(benchmark::kMillisecond);

// --- Replicated regime (informational): the Figs 7-11 protocol end to
// --- end — one serial run_routing_experiment of 8 runs on the paper
// --- scenario, 100 oldest-node agents with the oracle recorded. With two
// --- or more runs the scenario's world is recorded once and every run
// --- replays it (docs/PERFORMANCE.md, "Shared world script"). Items are
// --- simulated run-steps.
void BM_RoutingExperiment(benchmark::State& state) {
  const RoutingScenario scenario(RoutingScenarioParams{},
                                 paper::kRoutingScenarioSeed);
  RoutingTaskConfig task;
  task.steps = paper::kRoutingSteps;
  task.measure_from = paper::kRoutingMeasureFrom;
  task.population = 100;
  task.agent.policy = RoutingPolicy::kOldestNode;
  task.agent.history_size = 10;
  task.record_oracle = true;
  task.agent_parallel = AgentParallelConfig{};
  constexpr int kRuns = 8;
  for (auto _ : state) {
    const RoutingSummary summary =
        run_routing_experiment(scenario, task, kRuns, paper::kRunSeedBase, 1,
                               ObsConfig{}, FaultPlan{});
    benchmark::DoNotOptimize(summary.mean_connectivity.mean());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kRuns * static_cast<std::int64_t>(task.steps));
}
BENCHMARK(BM_RoutingExperiment)->Unit(benchmark::kMillisecond);

// --- Traffic regime (informational, no Full/Incremental pair): the whole
// --- loaded-network loop — delay-mode ants, flow generation, batch
// --- forwarding with queueing — on the paper-sized world. The counted-
// --- arrival design is what keeps the loaded case within a small factor
// --- of idle: load scales packet *counts*, not queue-entry counts.
void traffic_advance_loop(benchmark::State& state, double offered_load) {
  MacroParams p;
  World world = make_macro_world(p, true);
  std::vector<bool> is_gateway(p.node_count, false);
  for (std::size_t g = 0; g < 12; ++g)
    is_gateway[g * p.node_count / 12] = true;
  AntRoutingConfig ant_config;
  ant_config.reinforcement = AntReinforcement::kDelay;
  Rng rng(p.seed);
  AntRoutingSystem ants(p.node_count, is_gateway, ant_config,
                        rng.fork(0xA27));
  FlowWorkloadConfig workload;
  workload.offered_load = offered_load;
  FlowTrafficSimulator traffic(p.node_count, is_gateway, workload,
                               LinkQueueConfig{}, rng.fork(0xF10A));
  std::size_t t = 0;
  for (int i = 0; i < 16; ++i) world.advance();  // warm every buffer
  for (auto _ : state) {
    ants.step(world.graph(), t, traffic.hop_delays(), {});
    const RoutingTables tables = ants.snapshot_tables(t);
    traffic.step(world.graph(), tables, t);
    world.advance();
    benchmark::DoNotOptimize(traffic.queued());
    ++t;
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_TrafficAdvanceIdle(benchmark::State& state) {
  traffic_advance_loop(state, 0.0);
}
BENCHMARK(BM_TrafficAdvanceIdle);

void BM_TrafficAdvanceLoaded(benchmark::State& state) {
  traffic_advance_loop(state, 0.5);
}
BENCHMARK(BM_TrafficAdvanceLoaded);

}  // namespace
}  // namespace agentnet

// Custom main instead of BENCHMARK_MAIN() so every bench run can drop a
// provenance manifest next to its JSON (gated on AGENTNET_MANIFEST).
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  agentnet::obs::write_env_manifest();
  return 0;
}
