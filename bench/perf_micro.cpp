// Micro-benchmarks (google-benchmark) for the substrate hot paths: topology
// rebuild, graph queries, knowledge merges, agent stepping and connectivity
// measurement. These guard the costs that the figure benches amortise.
//
// This TU also replaces global operator new/delete with counting versions,
// so the zero-allocation claims (warm World::advance(), warm build_into())
// are measured as counters instead of argued in comments.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <new>
#include <string>

#include "aco/ant_routing.hpp"
#include "common/flat_map.hpp"
#include "core/mapping_task.hpp"
#include "core/routing_task.hpp"
#include "experiments/mapping_experiments.hpp"
#include "geom/spatial_grid.hpp"
#include "mobility/mobility.hpp"
#include "net/generators.hpp"
#include "net/metrics.hpp"
#include "obs/manifest.hpp"
#include "routing/connectivity.hpp"
#include "snapshot/snapshot.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* counted_alloc_aligned(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     size) != 0)
    throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace agentnet {
namespace {

const GeneratedNetwork& net300() {
  static const GeneratedNetwork net = paper_mapping_network(2010);
  return net;
}

void BM_TopologyBuild(benchmark::State& state) {
  const auto& net = net300();
  TopologyBuilder builder(net.bounds, 1000.0, LinkPolicy::kDirected);
  for (auto _ : state) {
    benchmark::DoNotOptimize(builder.build(net.positions, net.base_ranges));
  }
}
BENCHMARK(BM_TopologyBuild);

void BM_TopologyBuildInto(benchmark::State& state) {
  // Warm rebuild into recycled storage — the per-step path World uses.
  // allocs_per_rebuild should read 0.
  const auto& net = net300();
  TopologyBuilder builder(net.bounds, 1000.0, LinkPolicy::kDirected);
  Graph reused;
  builder.build_into(reused, net.positions, net.base_ranges);
  std::size_t allocs = 0;
  for (auto _ : state) {
    const std::size_t before =
        g_allocations.load(std::memory_order_relaxed);
    builder.build_into(reused, net.positions, net.base_ranges);
    allocs += g_allocations.load(std::memory_order_relaxed) - before;
    benchmark::DoNotOptimize(reused.edge_count());
  }
  state.counters["allocs_per_rebuild"] = benchmark::Counter(
      static_cast<double>(allocs), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_TopologyBuildInto);

void BM_GraphHasEdge(benchmark::State& state) {
  const Graph& g = net300().graph;
  NodeId u = 0, v = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.has_edge(u, v));
    u = (u + 7) % 300;
    v = (v + 13) % 300;
  }
}
BENCHMARK(BM_GraphHasEdge);

void BM_BfsDistances(benchmark::State& state) {
  const Graph& g = net300().graph;
  for (auto _ : state) benchmark::DoNotOptimize(bfs_distances(g, 0));
}
BENCHMARK(BM_BfsDistances);

void BM_CsrBfsDistances(benchmark::State& state) {
  // Same BFS with the distance array reused across calls.
  const Graph& g = net300().graph;
  std::vector<int> dist;
  for (auto _ : state) {
    bfs_distances(g, 0, dist);
    benchmark::DoNotOptimize(dist.data());
  }
}
BENCHMARK(BM_CsrBfsDistances);

void BM_GraphIterateEdges(benchmark::State& state) {
  const Graph& g = net300().graph;
  for (auto _ : state) {
    std::size_t sum = 0;
    for (NodeId u = 0; u < g.node_count(); ++u)
      for (NodeId v : g.out_neighbors(u)) sum += v;
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_GraphIterateEdges);

void BM_CsrIterateEdges(benchmark::State& state) {
  // The same edge set laid out dense (the transpose of the transpose: no
  // slack, no moved rows); compare against BM_GraphIterateEdges for the
  // cost of the generator's padded, grown-in-place layout.
  Graph rev;
  Graph dense;
  net300().graph.transposed_into(rev);
  rev.transposed_into(dense);
  for (auto _ : state) {
    std::size_t sum = 0;
    for (NodeId u = 0; u < dense.node_count(); ++u)
      for (NodeId v : dense.out_neighbors(u)) sum += v;
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_CsrIterateEdges);

template <class MapType>
void table_churn(benchmark::State& state) {
  // The agent-table access mix: point lookups, insert-or-bump, full scans
  // (the trim/evaporation pattern) over a small per-agent table.
  for (auto _ : state) {
    MapType table;
    for (std::uint32_t round = 0; round < 16; ++round) {
      for (std::uint32_t k = 0; k < 24; ++k)
        table[(k * 37 + round) % 64] += 1.0;
      double sum = 0.0;
      for (const auto& [key, value] : table) sum += value;
      benchmark::DoNotOptimize(sum);
      for (std::uint32_t k = 0; k < 24; k += 3) {
        auto it = table.find((k * 37 + round) % 64);
        if (it != table.end()) table.erase(it);
      }
    }
    benchmark::DoNotOptimize(table.size());
  }
}

void BM_StdMapChurn(benchmark::State& state) {
  table_churn<std::map<NodeId, double>>(state);
}
BENCHMARK(BM_StdMapChurn);

void BM_FlatMapChurn(benchmark::State& state) {
  table_churn<FlatMap<NodeId, double>>(state);
}
BENCHMARK(BM_FlatMapChurn);

/// The paper network's arcs in row order: the edge ids every mapping run
/// on it uses.
const EdgeIndex& index300() {
  static const EdgeIndex index(net300().graph);
  return index;
}

void BM_KnowledgeMerge(benchmark::State& state) {
  const EdgeIndex& index = index300();
  MapKnowledge b(index);
  const Graph& g = net300().graph;
  for (NodeId u = 0; u < 300; u += 2) b.observe_node(u, g.out_neighbors(u), 0);
  for (auto _ : state) {
    MapKnowledge fresh(index);
    fresh.learn_from(b);
    benchmark::DoNotOptimize(fresh.known_edge_count());
  }
  state.counters["bytes_per_agent"] = static_cast<double>(b.heap_bytes());
}
BENCHMARK(BM_KnowledgeMerge);

void BM_MeetingExchange(benchmark::State& state) {
  // One co-located meeting of k agents: pool every map, then each member
  // adopts the pool. Each iteration first restores the members' distinct
  // pre-meeting maps (k store copies), so the pool does real merging.
  const auto k = static_cast<std::size_t>(state.range(0));
  const Graph& g = net300().graph;
  std::vector<MapKnowledge> before(k, MapKnowledge(index300()));
  for (std::size_t m = 0; m < k; ++m)
    for (NodeId u = static_cast<NodeId>(m); u < 300;
         u += static_cast<NodeId>(k))
      before[m].observe_node(u, g.out_neighbors(u), u);
  std::vector<MapKnowledge> members = before;
  KnowledgePool pool;
  for (auto _ : state) {
    members = before;
    pool.clear();
    for (const MapKnowledge& member : members) pool.add(member);
    for (MapKnowledge& member : members) member.adopt(pool);
    benchmark::DoNotOptimize(members.back().known_edge_count());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(k));
  state.counters["bytes_per_agent"] =
      static_cast<double>(members.back().heap_bytes());
}
BENCHMARK(BM_MeetingExchange)->Arg(2)->Arg(8);

void BM_MappingStep(benchmark::State& state) {
  // Cost of one full team-step, measured as a short task run.
  const auto pop = static_cast<int>(state.range(0));
  for (auto _ : state) {
    World world = World::frozen(net300());
    MappingTaskConfig cfg;
    cfg.population = pop;
    cfg.agent = {MappingPolicy::kConscientious, StigmergyMode::kFilterFirst};
    cfg.max_steps = 50;
    cfg.record_series = false;
    benchmark::DoNotOptimize(run_mapping_task(world, cfg, Rng(1)));
  }
  state.SetItemsProcessed(state.iterations() * 50 * pop);
}
BENCHMARK(BM_MappingStep)->Arg(1)->Arg(15)->Arg(100);

void BM_MappingExperiment(benchmark::State& state) {
  // The replication fan-out path the figure benches run on; arg = worker
  // threads (1 = exact serial loop, 0 = AGENTNET_THREADS / all cores).
  const auto threads = static_cast<int>(state.range(0));
  MappingTaskConfig cfg;
  cfg.population = 15;
  cfg.agent = {MappingPolicy::kConscientious, StigmergyMode::kFilterFirst};
  cfg.max_steps = 60;
  cfg.record_series = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_mapping_experiment(net300(), cfg, 8, 1, threads));
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_MappingExperiment)->Arg(1)->Arg(0)->UseRealTime();

void BM_ConnectivityMeasure(benchmark::State& state) {
  const RoutingScenario scenario{RoutingScenarioParams{}, 2010};
  World world = scenario.make_world();
  RoutingTables tables(world.node_count());
  // Seed plausible routes from a BFS tree toward gateway 0-ish nodes.
  std::vector<bool> gw = scenario.is_gateway();
  for (NodeId v = 0; v < world.node_count(); ++v) {
    const auto nbrs = world.graph().out_neighbors(v);
    if (!nbrs.empty()) tables.force(v, {nbrs[0], 0, 3, 0});
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(measure_connectivity(world.graph(), tables, gw));
}
BENCHMARK(BM_ConnectivityMeasure);

void BM_RoutingStep(benchmark::State& state) {
  const RoutingScenario scenario{RoutingScenarioParams{}, 2010};
  for (auto _ : state) {
    RoutingTaskConfig cfg;
    cfg.population = static_cast<int>(state.range(0));
    cfg.steps = 30;
    cfg.measure_from = 15;
    benchmark::DoNotOptimize(run_routing_task(scenario, cfg, Rng(1)));
  }
  state.SetItemsProcessed(state.iterations() * 30 * state.range(0));
}
BENCHMARK(BM_RoutingStep)->Arg(25)->Arg(100);

void BM_AntColonyStep(benchmark::State& state) {
  // One colony step (evaporate, launch, one hop per ant) in delay mode on
  // the paper's 250-node / 12-gateway world, frozen after a warm-up so the
  // ant population and the pheromone rows are at their working size. The
  // per-hop delays are a fixed non-uniform pattern, as a loaded data plane
  // would feed.
  const RoutingScenario scenario{RoutingScenarioParams{}, 2010};
  World world = scenario.make_world();
  for (int i = 0; i < 64; ++i) world.advance();
  std::vector<double> delays(world.node_count());
  for (std::size_t v = 0; v < delays.size(); ++v)
    delays[v] = 1.0 + 0.25 * static_cast<double>(v % 5);
  AntRoutingConfig cfg;
  cfg.reinforcement = AntReinforcement::kDelay;
  AntRoutingSystem ants(world.node_count(), scenario.is_gateway(), cfg,
                        Rng(1));
  std::size_t t = 0;
  for (; t < 150; ++t) ants.step(world.graph(), t, delays, {});
  const std::size_t hops_before = ants.ant_hops();
  for (auto _ : state) {
    ants.step(world.graph(), t++, delays, {});
    benchmark::DoNotOptimize(ants.active_ants());
  }
  state.counters["hops_per_step"] = benchmark::Counter(
      static_cast<double>(ants.ant_hops() - hops_before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_AntColonyStep);

void BM_WorldAdvance(benchmark::State& state) {
  // allocs_per_advance is the zero-allocation steady-state gauge: after the
  // warm-up advances below, a full mobility + battery + rebuild + CSR step
  // should not touch the heap.
  const RoutingScenario scenario{RoutingScenarioParams{}, 2010};
  World world = scenario.make_world();
  for (int i = 0; i < 64; ++i) world.advance();  // warm every buffer
  std::size_t allocs = 0;
  for (auto _ : state) {
    const std::size_t before =
        g_allocations.load(std::memory_order_relaxed);
    world.advance();
    allocs += g_allocations.load(std::memory_order_relaxed) - before;
    benchmark::DoNotOptimize(world.graph().edge_count());
  }
  state.counters["allocs_per_advance"] = benchmark::Counter(
      static_cast<double>(allocs), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_WorldAdvance);

void BM_SpatialGridRebuild(benchmark::State& state) {
  Rng rng(1);
  const Aabb arena{{0.0, 0.0}, {1000.0, 1000.0}};
  const auto positions =
      random_positions(static_cast<std::size_t>(state.range(0)), arena, rng);
  SpatialGrid grid(arena, 110.0);
  for (auto _ : state) {
    grid.rebuild(positions);
    benchmark::DoNotOptimize(grid.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SpatialGridRebuild)->Arg(250)->Arg(2000);

// --- Checkpoint/restore cost (docs/ROBUSTNESS.md) -------------------------
// One realistic mid-run routing checkpoint (paper-scale scenario, 100
// agents, fault-free): how long a periodic autosave stalls a run, how long
// a resume takes, and how large the artefact is per node.

constexpr std::size_t kCheckpointNodes = 250;

/// Lazily produces the checkpoint file by actually checkpointing a
/// routing run at step 20, so the payload has the real shape (tables,
/// board, agents, caches, telemetry), not synthetic filler.
const std::string& checkpoint_fixture() {
  static const std::string path = [] {
    const char* tmpdir = std::getenv("TMPDIR");
    const std::string p = std::string(tmpdir ? tmpdir : "/tmp") +
                          "/agentnet_perf_micro_ck.snap";
    RoutingScenarioParams params;
    params.node_count = kCheckpointNodes;
    const RoutingScenario scenario{params, 2010};
    snapshot::ExperimentCheckpointer checkpointer(
        {"routing", 1, 1, scenario.node_count(), 40}, p, 20, "");
    snapshot::RunCheckpointPort port = checkpointer.port(0);
    RoutingTaskConfig cfg;
    cfg.population = 100;
    cfg.steps = 40;
    cfg.measure_from = 20;
    cfg.checkpoint = &port;
    run_routing_task(scenario, cfg, Rng(1));
    return p;
  }();
  return path;
}

void BM_CheckpointSave(benchmark::State& state) {
  const snapshot::Checkpoint checkpoint =
      snapshot::load_checkpoint(checkpoint_fixture());
  const std::string out = checkpoint_fixture() + ".resave";
  for (auto _ : state) snapshot::save_checkpoint(checkpoint, out);
  std::ifstream is(out, std::ios::binary | std::ios::ate);
  const auto bytes = static_cast<double>(is.tellg());
  state.counters["snapshot_bytes"] = bytes;
  state.counters["bytes_per_node"] =
      bytes / static_cast<double>(kCheckpointNodes);
  std::remove(out.c_str());
}
BENCHMARK(BM_CheckpointSave);

void BM_CheckpointLoad(benchmark::State& state) {
  const std::string& path = checkpoint_fixture();
  for (auto _ : state)
    benchmark::DoNotOptimize(snapshot::load_checkpoint(path));
}
BENCHMARK(BM_CheckpointLoad);

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
