#include "adv/dv_agent.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace agentnet {

DvAgent::DvAgent(int id, NodeId start, DvAgentConfig config, Rng rng)
    : id_(id), location_(start), config_(config), rng_(rng) {
  AGENTNET_REQUIRE(config.table_size >= 2, "table size must be >= 2");
  AGENTNET_REQUIRE(config.entry_ttl >= 1, "entry ttl must be >= 1");
}

void DvAgent::trim(std::size_t now) {
  // Drop expired entries first, then evict least-recently-updated.
  for (auto it = table_.begin(); it != table_.end();) {
    if (now > it->second.updated + config_.entry_ttl)
      it = table_.erase(it);
    else
      ++it;
  }
  while (table_.size() > config_.table_size) {
    auto oldest = table_.begin();
    for (auto it = std::next(table_.begin()); it != table_.end(); ++it)
      if (it->second.updated < oldest->second.updated) oldest = it;
    table_.erase(oldest);
  }
}

void DvAgent::arrive(const Graph& graph, const std::vector<bool>& is_gateway,
                     std::size_t now) {
  AGENTNET_ASSERT(location_ < is_gateway.size());
  if (is_gateway[location_]) {
    table_[location_] = {0, now};
  } else {
    // Bellman-Ford relaxation against live neighbours the agent knows.
    std::uint32_t best = kInvalidDistance;
    for (NodeId w : graph.out_neighbors(location_)) {
      const auto it = table_.find(w);
      if (it == table_.end()) continue;
      best = std::min(best, it->second.distance + 1);
    }
    if (best != kInvalidDistance) {
      auto it = table_.find(location_);
      // Accept improvements outright; equal-or-worse refreshes only rewrite
      // the estimate (mobility makes old better values untrustworthy).
      if (it == table_.end() || best <= it->second.distance ||
          now > it->second.updated + config_.entry_ttl / 2) {
        table_[location_] = {best, now};
        AGENTNET_COUNT(kDvRelaxations);
      } else {
        it->second.updated = now;
      }
    }
  }
  trim(now);
}

NodeId DvAgent::decide(const Graph& graph, std::size_t now) {
  const auto neighbors = graph.out_neighbors(location_);
  if (neighbors.empty()) return location_;
  // Least-recently-refreshed neighbour (unknown first) via the shared
  // selection rule — the DV analogue of oldest-node. The board is a dummy:
  // with StigmergyMode::kOff it is never consulted.
  static const StigmergyBoard kNoBoard(1);
  return select_target(
      neighbors,
      [&](NodeId v) {
        const auto it = table_.find(v);
        return it == table_.end()
                   ? kNeverVisited
                   : static_cast<std::int64_t>(it->second.updated);
      },
      StigmergyMode::kOff, kNoBoard, location_, now, rng_,
      TieBreak::kSharedHash);
}

void DvAgent::move_to(NodeId target) { location_ = target; }

bool DvAgent::install(const Graph& graph, RoutingTables& tables,
                      const std::vector<bool>& is_gateway, std::size_t now) {
  if (is_gateway[location_]) return false;
  NodeId best_hop = kInvalidNode;
  std::uint32_t best_dist = kInvalidDistance;
  for (NodeId w : graph.out_neighbors(location_)) {
    const auto it = table_.find(w);
    if (it == table_.end()) continue;
    if (it->second.distance < best_dist) {
      best_dist = it->second.distance;
      best_hop = w;
    }
  }
  if (best_hop == kInvalidNode) return false;
  RouteEntry entry;
  entry.next_hop = best_hop;
  entry.gateway = kInvalidNode;  // DV routes toward the nearest gateway
  entry.hops = best_dist + 1;
  entry.installed_at = now;
  return tables.offer(location_, entry, now);
}

DvRoutingTaskResult run_dv_routing_task(const RoutingScenario& scenario,
                                        const DvRoutingTaskConfig& config,
                                        Rng rng) {
  AGENTNET_REQUIRE(config.population >= 1, "population must be >= 1");
  AGENTNET_REQUIRE(config.measure_from < config.steps,
                   "measure_from must precede steps");
  TaskLoop loop(config);
  World world = scenario.make_world();
  world.set_team(loop.par().team());
  const std::size_t n = world.node_count();
  const auto& is_gateway = scenario.is_gateway();
  RoutingTables tables(n, config.route_policy);

  std::vector<DvAgent> agents;
  agents.reserve(static_cast<std::size_t>(config.population));
  for (int a = 0; a < config.population; ++a)
    agents.emplace_back(a, static_cast<NodeId>(rng.index(n)), config.agent,
                        rng.fork(static_cast<std::uint64_t>(a) + 1));
  loop.fork_faults(rng);
  const AgentParallel& par = loop.par();

  DvRoutingTaskResult result;
  result.connectivity.reserve(config.steps);

  // Checkpoint/restore: agents are homogeneous (config.agent, no respawn
  // path), so only their evolving state is carried. The run RNG is not —
  // nothing draws from the local after setup.
  const auto save_run = [&](snapshot::ByteWriter& w) {
    world.save_state(w);
    tables.save_state(w);
    loop.save_faults(w);
    w.size(agents.size());
    for (const DvAgent& agent : agents) agent.save_state(w);
    loop.save_cache(w);
    w.pod_vec(result.connectivity);
    w.size(result.migration_bytes);
    w.size(result.agents_lost);
  };
  const auto load_run = [&](snapshot::ByteReader& r) {
    world.load_state(r);
    tables.load_state(r);
    loop.load_faults(r);
    const std::size_t live = r.counted(8);
    AGENTNET_REQUIRE(live <= static_cast<std::size_t>(config.population),
                     "snapshot: population exceeds configuration");
    agents.clear();
    agents.reserve(live);
    for (std::size_t i = 0; i < live; ++i) {
      agents.emplace_back(0, NodeId{0}, config.agent, Rng(0));
      agents.back().load_state(r);
    }
    loop.load_cache(r);
    r.pod_vec(result.connectivity);
    result.migration_bytes = r.size();
    result.agents_lost = r.size();
  };

  loop.run(world, config.steps, save_run, load_run, [&](std::size_t t) {
    AGENTNET_OBS_PHASE(kStep);
    const Graph& live = loop.live_graph(world, world.step());
    {
      AGENTNET_OBS_PHASE(kSense);
      par.for_each(agents.size(), [&](std::size_t i) {
        agents[i].arrive(live, is_gateway, t);
      });
    }
    std::vector<NodeId> targets(agents.size());
    {
      AGENTNET_OBS_PHASE(kDecide);
      par.for_each(agents.size(), [&](std::size_t i) {
        targets[i] = agents[i].decide(live, t);
      });
    }
    {
      AGENTNET_OBS_PHASE(kMove);
      std::vector<char> lost;
      bool any_lost = false;
      for (std::size_t i = 0; i < agents.size(); ++i) {
        if (targets[i] != agents[i].location()) {
          if (loop.lose_in_transit()) {
            if (lost.empty()) lost.assign(agents.size(), 0);
            lost[i] = 1;
            any_lost = true;
            ++result.agents_lost;
            AGENTNET_COUNT(kAgentsLost);
            continue;
          }
          result.migration_bytes += agents[i].state_size_bytes();
          AGENTNET_COUNT(kAgentHops);
        }
        agents[i].move_to(targets[i]);
        agents[i].install(live, tables, is_gateway, t);
      }
      if (any_lost) erase_flagged(agents, lost);
    }
    world.advance();
    AGENTNET_OBS_PHASE(kMeasure);
    result.connectivity.push_back(
        loop.connectivity(t, world, tables, is_gateway));
  });
  result.final_population = agents.size();
  AGENTNET_OBS_PHASE(kSummarize);
  const RunningStats window =
      window_stats(result.connectivity, config.measure_from);
  result.mean_connectivity = window.mean();
  result.stddev_connectivity = window.stddev();
  return result;
}

}  // namespace agentnet
