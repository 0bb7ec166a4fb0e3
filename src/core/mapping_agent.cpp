#include "core/mapping_agent.hpp"

namespace agentnet {

const char* to_string(MappingPolicy policy) {
  switch (policy) {
    case MappingPolicy::kRandom:
      return "random";
    case MappingPolicy::kConscientious:
      return "conscientious";
    case MappingPolicy::kSuperConscientious:
      return "super-conscientious";
  }
  return "?";
}

MappingAgent::MappingAgent(int id, NodeId start, const EdgeIndex& index,
                           MappingAgentConfig config, Rng rng)
    : id_(id),
      location_(start),
      config_(config),
      knowledge_(index),
      rng_(rng) {
  AGENTNET_REQUIRE(start < index.node_count(),
                   "agent start node out of range");
  AGENTNET_REQUIRE(config.randomness >= 0.0 && config.randomness <= 1.0,
                   "randomness must be a probability");
}

void MappingAgent::sense(const Graph& graph, std::size_t now) {
  knowledge_.observe_node(location_, graph.out_neighbors(location_), now);
}

NodeId MappingAgent::decide(const Graph& graph, const StigmergyBoard& board,
                            std::size_t now) {
  const auto neighbors = graph.out_neighbors(location_);
  if (neighbors.empty()) return location_;
  if (config_.randomness > 0.0 && rng_.bernoulli(config_.randomness))
    return neighbors[rng_.index(neighbors.size())];
  switch (config_.policy) {
    case MappingPolicy::kRandom:
      return select_target(
          neighbors, [](NodeId) { return std::int64_t{0}; },
          config_.stigmergy, board, location_, now, rng_);
    case MappingPolicy::kConscientious:
      return select_target(
          neighbors,
          [&](NodeId v) { return knowledge_.last_visit_first_hand(v); },
          config_.stigmergy, board, location_, now, rng_,
          TieBreak::kSharedHash);
    case MappingPolicy::kSuperConscientious:
      return select_target(
          neighbors, [&](NodeId v) { return knowledge_.last_visit_any(v); },
          config_.stigmergy, board, location_, now, rng_,
          TieBreak::kSharedHash);
  }
  return location_;
}

void MappingAgent::move_to(NodeId target) {
  AGENTNET_ASSERT(target < knowledge_.node_count());
  location_ = target;
}

}  // namespace agentnet
