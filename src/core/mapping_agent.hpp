// Mapping agents (section II of the paper): mobile programs that wander an
// unknown network and cooperatively build its map.
#pragma once

#include <string>

#include "common/rng.hpp"
#include "core/map_knowledge.hpp"
#include "core/selection.hpp"
#include "core/stigmergy.hpp"
#include "net/graph.hpp"

namespace agentnet {

enum class MappingPolicy {
  kRandom,             ///< Uniform random out-neighbour each step.
  kConscientious,      ///< Least-recently-visited by first-hand knowledge.
  kSuperConscientious  ///< Least-recently-visited by both hands.
};

struct MappingAgentConfig {
  MappingPolicy policy = MappingPolicy::kConscientious;
  StigmergyMode stigmergy = StigmergyMode::kOff;
  /// Minar et al.'s dispersal fix: with this probability the agent ignores
  /// its policy for one step and moves to a uniformly random neighbour
  /// ("N. Minar et al. add randomness to the decision that the
  /// super-conscientious agents make in order to disperse their agents").
  /// The extD bench compares this fix against the paper's stigmergy.
  double randomness = 0.0;
};

const char* to_string(MappingPolicy policy);

class MappingAgent {
 public:
  /// The agent maps `index`'s network; the index must outlive it.
  MappingAgent(int id, NodeId start, const EdgeIndex& index,
               MappingAgentConfig config, Rng rng);
  MappingAgent(int id, NodeId start, const EdgeIndex&& index,
               MappingAgentConfig config, Rng rng) = delete;

  int id() const { return id_; }
  NodeId location() const { return location_; }
  const MappingAgentConfig& config() const { return config_; }
  const MapKnowledge& knowledge() const { return knowledge_; }
  bool stigmergic() const {
    return config_.stigmergy != StigmergyMode::kOff;
  }

  /// Phase 1: learn all out-edges of the current node (first-hand). The
  /// index must already hold them (see EdgeIndex::add_row).
  void sense(const Graph& graph, std::size_t now);

  /// Phase 2: direct communication — take a co-located group's pooled
  /// knowledge as the full map (see MapKnowledge::adopt).
  void adopt(const KnowledgePool& pool) { knowledge_.adopt(pool); }

  /// Resilience policy: forget hearsay older than `ttl` steps (epoch
  /// rotation; see MapKnowledge::expire_second_hand).
  void expire_second_hand(std::size_t now, std::size_t ttl) {
    knowledge_.expire_second_hand(now, ttl);
  }

  /// Phase 3: choose the next node. Returns the current location when the
  /// node has no out-neighbours (the agent waits).
  NodeId decide(const Graph& graph, const StigmergyBoard& board,
                std::size_t now);

  /// Phase 4 + move. Stamps nothing by itself — the task stamps footprints
  /// so decision order and board writes stay in one place.
  void move_to(NodeId target);

  /// Serialized agent size if it migrated now: its knowledge plus a fixed
  /// 64-byte code/descriptor stub. Tasks meter migration traffic with this.
  std::size_t state_size_bytes() const {
    return 64 + knowledge_.serialized_size_bytes();
  }

  /// Checkpoint support: id, location, knowledge and RNG; the config is
  /// reconstructed from the task config on resume. Loading registers in
  /// `index` (the agent's own) any arc the knowledge names that it lacks.
  void save_state(snapshot::ByteWriter& w) const {
    w.scalar(id_);
    w.scalar(location_);
    knowledge_.save_state(w);
    rng_.save_state(w);
  }
  void load_state(snapshot::ByteReader& r, EdgeIndex& index) {
    id_ = r.scalar<int>();
    const std::size_t at = r.position();
    location_ = r.scalar<NodeId>();
    AGENTNET_REQUIRE(location_ < knowledge_.node_count(),
                     "snapshot: mapping agent on an unknown node at byte " +
                         std::to_string(at));
    knowledge_.load_state(r, index);
    rng_.load_state(r);
  }

 private:
  int id_;
  NodeId location_;
  MappingAgentConfig config_;
  MapKnowledge knowledge_;
  Rng rng_;
};

}  // namespace agentnet
