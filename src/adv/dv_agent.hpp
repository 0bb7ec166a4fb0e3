// Distance-vector-carrying agents — the heavyweight related-work design
// (after Amin & Mikler's agent-based distance vector routing [11] and
// Choudhury et al.'s MARP [10], which the paper credits with "about 4
// times more overhead than ours").
//
// Where the paper's oldest-node agent carries only a bounded visit history
// and a single reverse-path hint, a DV agent carries a table of estimated
// gateway distances for every node it knows about, performs Bellman-Ford
// relaxation at each node it lands on, and installs the argmin-neighbour
// route. It buys shorter routes and faster spread of distance information
// at a multiple of the migration bytes — bench extH measures whether the
// trade is worth it, reproducing the paper's overhead argument.
#pragma once

#include <cstdint>
#include <vector>

#include "common/flat_map.hpp"
#include "common/rng.hpp"
#include "core/routing_task.hpp"
#include "core/selection.hpp"
#include "core/task_loop.hpp"
#include "net/graph.hpp"
#include "routing/routing_table.hpp"
#include "snapshot/bytes.hpp"

namespace agentnet {

/// Sentinel for "no known distance".
inline constexpr std::uint32_t kInvalidDistance = 0xffffffffu;

struct DvAgentConfig {
  /// Carried distance-table capacity (entries); the overhead knob.
  std::size_t table_size = 40;
  /// Entries older than this many steps are dropped — stale distances are
  /// poison in a mobile network.
  std::size_t entry_ttl = 60;
};

class DvAgent {
 public:
  struct DvEntry {
    std::uint32_t distance = 0;  ///< Estimated hops to the nearest gateway.
    std::size_t updated = 0;     ///< Step of last refresh.
  };

  DvAgent(int id, NodeId start, DvAgentConfig config, Rng rng);

  NodeId location() const { return location_; }
  /// Flat sorted table; iterates in ascending node order like the std::map
  /// it replaced, so trims and installs stay bit-identical.
  const FlatMap<NodeId, DvEntry>& table() const { return table_; }
  const DvAgentConfig& config() const { return config_; }

  /// Arrival processing: age out stale entries, set the gateway anchor,
  /// Bellman-Ford relax this node against its live neighbours.
  void arrive(const Graph& graph, const std::vector<bool>& is_gateway,
              std::size_t now);

  /// Movement: toward the least-recently-refreshed neighbour (unknown
  /// first) — the DV analogue of oldest-node, so movement quality is
  /// comparable and the overhead difference is the carried table.
  NodeId decide(const Graph& graph, std::size_t now);

  void move_to(NodeId target);

  /// Installs the argmin-neighbour route at the current node. Returns true
  /// when a route was offered and accepted.
  bool install(const Graph& graph, RoutingTables& tables,
               const std::vector<bool>& is_gateway, std::size_t now);

  /// Serialized size: 16 bytes per table entry + the 64-byte stub. For the
  /// default table_size this is ~4x the paper agent's history-10 size —
  /// matching the related-work overhead ratio the paper quotes.
  std::size_t state_size_bytes() const {
    return 64 + 16 * table_.size();
  }

  /// Checkpoint support: id, location, carried table and RNG; config is
  /// rebuilt from the task config.
  void save_state(snapshot::ByteWriter& w) const {
    w.scalar(id_);
    w.scalar(location_);
    table_.save_state(w, [](snapshot::ByteWriter& out, const DvEntry& e) {
      out.scalar(e.distance);
      out.size(e.updated);
    });
    rng_.save_state(w);
  }
  void load_state(snapshot::ByteReader& r) {
    id_ = r.scalar<int>();
    location_ = r.scalar<NodeId>();
    table_.load_state(r, [](snapshot::ByteReader& in, DvEntry& e) {
      e.distance = in.scalar<std::uint32_t>();
      e.updated = in.size();
    });
    rng_.load_state(r);
  }

 private:
  void trim(std::size_t now);

  int id_;
  NodeId location_;
  DvAgentConfig config_;
  FlatMap<NodeId, DvEntry> table_;
  Rng rng_;
};

/// Topology faults mask the graph agents walk and the measurement sees;
/// agent_loss_probability kills migrating DV agents in transit. Each DV
/// agent owns its table and RNG, so the agent engine fans arrive
/// (relaxation), decide and the connectivity walks; move/install stay
/// serial (shared tables, fault draws).
struct DvRoutingTaskConfig : RunContext {
  int population = 100;
  DvAgentConfig agent{};
  std::size_t steps = 300;
  std::size_t measure_from = 150;
  RoutePolicy route_policy{30};
};

struct DvRoutingTaskResult {
  std::vector<double> connectivity;
  double mean_connectivity = 0.0;
  double stddev_connectivity = 0.0;
  std::size_t migration_bytes = 0;
  /// Failure-injection bookkeeping (zero on fault-free runs).
  std::size_t agents_lost = 0;
  std::size_t final_population = 0;
};

/// Runs on the TaskLoop (core/task_loop.hpp), like run_routing_task.
DvRoutingTaskResult run_dv_routing_task(const RoutingScenario& scenario,
                                        const DvRoutingTaskConfig& config,
                                        Rng rng);

}  // namespace agentnet
