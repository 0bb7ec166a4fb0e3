// Allocation budgets for the per-step hot paths (ctest label: perf).
//
// This binary replaces the global operator new / new[] with counting
// versions, so the allocation claims in docs/PERFORMANCE.md are exact
// counts instead of arguments in comments:
//   * a warm TopologyBuilder::build_into() on the 300-node paper network
//     allocates nothing;
//   * World::advance() on the paper routing scenario stays within a pinned
//     budget while its recorded trace still moves nodes, and allocates
//     nothing once the trace has frozen;
//   * a warm ForkJoin job — the run team's fan-out — allocates nothing,
//     and neither does a warm agent-engine batch dispatched over it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/agent_parallel.hpp"
#include "common/fork_join.hpp"
#include "core/routing_task.hpp"
#include "net/generators.hpp"
#include "net/topology.hpp"
#include "sim/world.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_alloc_aligned(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     size == 0 ? 1 : size) != 0)
    throw std::bad_alloc();
  return p;
}

std::size_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
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

TEST(AllocBudgetTest, WarmBuildIntoAllocatesNothing) {
  const GeneratedNetwork net = paper_mapping_network(2010);
  TopologyBuilder builder(net.bounds, 1000.0, LinkPolicy::kDirected);
  Graph graph;
  builder.build_into(graph, net.positions, net.base_ranges);  // warm
  const std::size_t before = allocations();
  for (int i = 0; i < 64; ++i)
    builder.build_into(graph, net.positions, net.base_ranges);
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_GT(graph.edge_count(), 0u);
}

TEST(AllocBudgetTest, WorldAdvanceStaysWithinBudget) {
  const RoutingScenario scenario{RoutingScenarioParams{}, 2010};
  World world = scenario.make_world();
  constexpr std::size_t kWarmSteps = 64;
  const std::size_t trace_steps = scenario.params().trace_steps;
  for (std::size_t i = 0; i < kWarmSteps; ++i) world.advance();

  // The moving window: every remaining step of the recorded trace. Its
  // allocations are bucket growth to new high-water marks as nodes crowd
  // cells and tiles they have not crowded before: 8 in SpatialGrid::move
  // (via TopologyBuilder::update_into), 5 in WorldShards::insert_member
  // and 3 inside World::advance itself. The budget is that measured total,
  // far below one allocation per step.
  constexpr std::size_t kMovingBudget = 16;
  const std::uint64_t epoch_before = world.epoch();
  std::size_t before = allocations();
  for (std::size_t i = kWarmSteps; i < trace_steps; ++i) world.advance();
  const std::size_t moving = allocations() - before;
  EXPECT_GT(world.epoch(), epoch_before) << "the window must move nodes";
  EXPECT_LE(moving, kMovingBudget);

  // The frozen tail: nothing moves, nothing grows.
  before = allocations();
  for (std::size_t i = 0; i < trace_steps; ++i) world.advance();
  EXPECT_EQ(allocations() - before, 0u);
}

TEST(AllocBudgetTest, WarmTeamJobAllocatesNothing) {
  ForkJoin team(4);
  std::vector<std::uint64_t> slot(1000, 0);
  const auto job = [&](std::size_t i) { slot[i] += i; };
  team.run(slot.size(), job);  // warm
  const std::size_t before = allocations();
  for (int i = 0; i < 64; ++i) team.run(slot.size(), job);
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(slot[999], 65u * 999);
}

TEST(AllocBudgetTest, WarmAgentBatchAllocatesNothing) {
  AgentParallelConfig config;
  config.threads = 4;
  const AgentParallel par(config);
  ASSERT_TRUE(par.active());
  std::vector<std::uint64_t> slot(1000, 0);
  const auto body = [&](std::size_t i) { slot[i] += i; };
  par.for_each(slot.size(), body);  // warm
  const std::size_t before = allocations();
  for (int i = 0; i < 64; ++i) par.for_each(slot.size(), body);
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(slot[999], 65u * 999);
}

}  // namespace
}  // namespace agentnet
