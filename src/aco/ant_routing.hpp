// Ant-colony routing baseline (AntHocNet-style, after Di Caro, Ducatelle &
// Gambardella — the paper's reference [9]).
//
// Where the paper's mobile agents carry state and write routing tables
// directly, ant routing keeps *pheromone* on the nodes: light forward ants
// sample paths toward a gateway in Monte Carlo fashion (next hop drawn
// proportionally to pheromone), and on success a backward ant retraces the
// path depositing pheromone scaled by path quality. Pheromone evaporates,
// so stale paths fade as the MANET rewires.
//
// The system plugs into the same World / connectivity machinery as the
// paper's agents: snapshot_tables() projects each node's argmax pheromone
// entry into a RoutingTables view, which measure_connectivity() then
// validates over the live graph — an apples-to-apples comparison (bench
// extF), including control overhead in bytes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/agent_parallel.hpp"
#include "common/flat_map.hpp"
#include "common/rng.hpp"
#include "net/graph.hpp"
#include "routing/routing_table.hpp"
#include "snapshot/bytes.hpp"

namespace agentnet {

/// What a backward ant's deposit is scaled by (AntNet's goodness measure).
enum class AntReinforcement {
  /// deposit / hop_count — the historical mode; the default, and
  /// bit-identical to the pre-delay-plane behaviour.
  kHopCount,
  /// deposit / measured trip time, where the forward ant accumulates the
  /// data plane's per-hop queueing delays (see docs/TRAFFIC.md). With no
  /// delay feed (or an idle network) every hop costs exactly 1.0, so this
  /// mode degenerates to kHopCount bit-for-bit.
  kDelay,
};

struct AntRoutingConfig {
  /// Per non-gateway node per step: probability of launching a forward ant.
  double launch_probability = 0.2;
  /// Pheromone decay factor per step (τ ← (1-ρ)τ).
  double evaporation = 0.02;
  /// Pheromone deposited by a backward ant, divided by path length.
  double deposit = 1.0;
  /// Additive exploration floor so unexplored links keep a chance.
  double exploration = 0.05;
  /// Pheromone exponent in the sampling weight (τ+ε)^β.
  double beta = 2.0;
  /// Forward-ant hop budget.
  std::uint32_t ant_ttl = 40;
  /// Concurrent-ant cap (drops launches beyond it).
  std::size_t max_ants = 4096;
  /// Failure injection: per step, each in-flight ant is lost with this
  /// probability (the control packet vanishes mid-hop). 0 draws nothing,
  /// keeping fault-free runs on their historical RNG sequence.
  double ant_loss_probability = 0.0;
  /// Deposit scaling: hop count (default, historical) or measured delay.
  AntReinforcement reinforcement = AntReinforcement::kHopCount;
};

class AntRoutingSystem {
 public:
  AntRoutingSystem(std::size_t node_count, std::vector<bool> is_gateway,
                   AntRoutingConfig config, Rng rng);

  /// One simulation step: evaporate, launch forward ants, advance every
  /// ant one hop (forward ants sample, backward ants retrace + deposit).
  void step(const Graph& graph, std::size_t now);

  /// As above, with the data plane's control inputs. `hop_delays[v]` is the
  /// current per-hop delay at node v (FlowTrafficSimulator::hop_delays());
  /// forward ants accumulate it into their trip time, which kDelay mode
  /// reinforces by. `gateway_bias[g]` multiplies deposits from backward
  /// ants that turned around at gateway g (GatewayBalancer::bias()), so
  /// overloaded gateways attract less traffic. Either span may be empty:
  /// empty = unit delays / unit bias, which leaves every deposit bit-
  /// identical to the plain step().
  void step(const Graph& graph, std::size_t now,
            std::span<const double> hop_delays,
            std::span<const double> gateway_bias);

  /// Current pheromone on the directed pair (from → to); 0 if none.
  double pheromone(NodeId from, NodeId to) const;

  /// Mean normalized Shannon entropy of the pheromone rows with at least
  /// two positive entries: 1.0 = undecided (uniform), → 0 as each row
  /// concentrates on one next hop. 0.0 when no row qualifies. The
  /// time-series kPheromoneEntropy gauge — a convergence indicator.
  double pheromone_entropy() const;

  /// Each node's argmax-pheromone next hop as a routing-table snapshot
  /// (entries stamped `now` so the freshness policy never evicts them).
  RoutingTables snapshot_tables(std::size_t now) const;

  /// Intra-run parallelism: evaporation rows, the entropy gauge and the
  /// snapshot argmax fan over the agent engine with per-row slots reduced
  /// in row order (bit-identical). Ant advancement and launches stay
  /// serial — they share the colony RNG. Inactive engine (the default) is
  /// the exact serial path.
  void set_parallel(const AgentParallel& par) { par_ = par; }

  std::size_t active_ants() const { return ants_.size(); }
  /// Cumulative ant hops (forward + backward).
  std::size_t ant_hops() const { return ant_hops_; }
  /// Cumulative control traffic: each hop ships the ant's 16-byte header
  /// plus its carried path (8 bytes per entry).
  std::size_t control_bytes() const { return control_bytes_; }
  std::size_t ants_launched() const { return ants_launched_; }
  std::size_t ants_completed() const { return ants_completed_; }

  const AntRoutingConfig& config() const { return config_; }

  /// Checkpoint support: pheromone rows, in-flight ants, RNG and the
  /// cumulative overhead counters; config and gateway mask are rebuilt
  /// from the task config.
  void save_state(snapshot::ByteWriter& w) const {
    w.size(pheromone_.size());
    for (const auto& row : pheromone_)
      row.save_state(
          w, [](snapshot::ByteWriter& out, double v) { out.f64(v); });
    w.size(ants_.size());
    for (const Ant& ant : ants_) {
      w.pod_vec(ant.path);
      w.size(ant.position);
      w.boolean(ant.backward);
      w.f64(ant.trip_time);
    }
    rng_.save_state(w);
    w.size(ant_hops_);
    w.size(control_bytes_);
    w.size(ants_launched_);
    w.size(ants_completed_);
  }
  /// Rejects (ConfigError) any ant or pheromone entry that names a node
  /// outside the colony, and any ant whose path or position could not have
  /// been reached by step().
  void load_state(snapshot::ByteReader& r);

 private:
  struct Ant {
    std::vector<NodeId> path;  ///< Nodes visited, path.front() = source.
    std::size_t position = 0;  ///< Index into path (backward phase).
    bool backward = false;
    double trip_time = 0.0;  ///< Sum of per-hop delays on the forward leg.
  };

  void advance_forward(Ant& ant, const Graph& graph,
                       std::span<const double> hop_delays);
  void advance_backward(Ant& ant, const Graph& graph,
                        std::span<const double> gateway_bias);
  void account_hop(const Ant& ant);

  AntRoutingConfig config_;
  std::vector<bool> is_gateway_;
  /// pheromone_[u] maps neighbour id → τ(u → neighbour). Flat sorted rows:
  /// same ascending-id iteration (and thus bit-identical evaporation and
  /// argmax order) as the std::map they replaced.
  std::vector<FlatMap<NodeId, double>> pheromone_;
  std::vector<Ant> ants_;
  Rng rng_;
  AgentParallel par_;  ///< Inactive by default; see set_parallel().
  /// (0 + exploration)^beta: the sampling weight of a neighbour with no
  /// pheromone entry, computed once instead of per hop.
  double unexplored_weight_;
  /// Forward-hop scratch, reused from hop to hop (not checkpointed).
  std::vector<NodeId> candidates_;
  std::vector<double> weights_;
  /// Loop avoidance: node v is on the hopping ant's path iff
  /// on_path_[v] == path_stamp_. Each hop takes a fresh stamp, so no
  /// clearing is needed until the counter wraps.
  std::vector<std::uint32_t> on_path_;
  std::uint32_t path_stamp_ = 0;
  std::size_t ant_hops_ = 0;
  std::size_t control_bytes_ = 0;
  std::size_t ants_launched_ = 0;
  std::size_t ants_completed_ = 0;
};

/// Runs ant routing on a scenario world and reports the same converged
/// connectivity statistic as run_routing_task, plus overhead counters.
struct AntRoutingResult {
  std::vector<double> connectivity;
  double mean_connectivity = 0.0;
  double stddev_connectivity = 0.0;
  std::size_t ant_hops = 0;
  std::size_t control_bytes = 0;
  std::size_t ants_launched = 0;
  std::size_t ants_completed = 0;
};

}  // namespace agentnet
