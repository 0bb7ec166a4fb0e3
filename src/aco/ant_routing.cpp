#include "aco/ant_routing.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace agentnet {

AntRoutingSystem::AntRoutingSystem(std::size_t node_count,
                                   std::vector<bool> is_gateway,
                                   AntRoutingConfig config, Rng rng)
    : config_(config),
      is_gateway_(std::move(is_gateway)),
      pheromone_(node_count),
      rng_(rng),
      unexplored_weight_(std::pow(0.0 + config.exploration, config.beta)),
      on_path_(node_count, 0) {
  AGENTNET_REQUIRE(is_gateway_.size() == node_count,
                   "gateway mask size mismatch");
  AGENTNET_REQUIRE(config.launch_probability >= 0.0 &&
                       config.launch_probability <= 1.0,
                   "launch probability must be in [0,1]");
  AGENTNET_REQUIRE(config.evaporation >= 0.0 && config.evaporation < 1.0,
                   "evaporation must be in [0,1)");
  AGENTNET_REQUIRE(config.deposit > 0.0, "deposit must be > 0");
  AGENTNET_REQUIRE(config.exploration > 0.0,
                   "exploration floor must be > 0 (else unexplored links "
                   "can never be sampled)");
  AGENTNET_REQUIRE(config.beta > 0.0, "beta must be > 0");
  AGENTNET_REQUIRE(config.ant_ttl >= 1, "ant ttl must be >= 1");
  AGENTNET_REQUIRE(config.ant_loss_probability >= 0.0 &&
                       config.ant_loss_probability <= 1.0,
                   "ant loss probability must be in [0,1]");
}

double AntRoutingSystem::pheromone(NodeId from, NodeId to) const {
  AGENTNET_ASSERT(from < pheromone_.size());
  const auto it = pheromone_[from].find(to);
  return it == pheromone_[from].end() ? 0.0 : it->second;
}

namespace {

// One row's normalized-entropy term; false when the row does not qualify.
// Shared by the serial and parallel accumulations so both run the exact
// same floating-point operations per row.
bool entropy_term(const FlatMap<NodeId, double>& row, double& term) {
  if (row.size() < 2) return false;
  double total = 0.0;
  for (const auto& [to, tau] : row)
    if (tau > 0.0) total += tau;
  if (total <= 0.0) return false;
  double entropy = 0.0;
  for (const auto& [to, tau] : row) {
    if (tau <= 0.0) continue;
    const double p = tau / total;
    entropy -= p * std::log(p);
  }
  term = entropy / std::log(static_cast<double>(row.size()));
  return true;
}

}  // namespace

double AntRoutingSystem::pheromone_entropy() const {
  const std::size_t n = pheromone_.size();
  if (par_.active() && n >= 2) {
    // Per-row term slots, summed serially in row order — the same
    // left-to-right addition sequence as the serial loop, so the gauge is
    // bit-identical at any thread count.
    std::vector<double> terms(n, 0.0);
    std::vector<char> qualifies(n, 0);
    par_.for_each(n, [&](std::size_t u) {
      double term = 0.0;
      if (entropy_term(pheromone_[u], term)) {
        terms[u] = term;
        qualifies[u] = 1;
      }
    });
    double sum = 0.0;
    std::size_t rows = 0;
    for (std::size_t u = 0; u < n; ++u) {
      if (qualifies[u]) {
        sum += terms[u];
        ++rows;
      }
    }
    return rows == 0 ? 0.0 : sum / static_cast<double>(rows);
  }
  double sum = 0.0;
  std::size_t rows = 0;
  for (const auto& row : pheromone_) {
    double term = 0.0;
    if (!entropy_term(row, term)) continue;
    sum += term;
    ++rows;
  }
  return rows == 0 ? 0.0 : sum / static_cast<double>(rows);
}

void AntRoutingSystem::load_state(snapshot::ByteReader& r) {
  const std::size_t n = pheromone_.size();
  AGENTNET_REQUIRE(r.size() == n, "snapshot: pheromone row count mismatch");
  // Each rejection names the byte where the offending record starts.
  const auto at = [](std::size_t pos) {
    return " (record at byte " + std::to_string(pos) + ")";
  };
  for (auto& row : pheromone_) {
    const std::size_t pos = r.position();
    row.load_state(r,
                   [](snapshot::ByteReader& in, double& v) { v = in.f64(); });
    // Keys ascend strictly, so the last one is the largest.
    AGENTNET_REQUIRE(row.empty() || std::prev(row.end())->first < n,
                     "snapshot: pheromone entry names an unknown node" +
                         at(pos));
  }
  ants_.resize(r.counted(8));
  for (Ant& ant : ants_) {
    const std::size_t pos = r.position();
    r.pod_vec(ant.path);
    ant.position = r.size();
    ant.backward = r.boolean();
    ant.trip_time = r.f64();
    AGENTNET_REQUIRE(!ant.path.empty(),
                     "snapshot: ant with an empty path" + at(pos));
    AGENTNET_REQUIRE(ant.path.size() <= std::size_t{config_.ant_ttl} + 1,
                     "snapshot: ant path longer than the ttl allows" + at(pos));
    for (const NodeId v : ant.path)
      AGENTNET_REQUIRE(v < n,
                       "snapshot: ant path names an unknown node" + at(pos));
    AGENTNET_REQUIRE(ant.position < ant.path.size(),
                     "snapshot: ant position past the end of its path" +
                         at(pos));
    AGENTNET_REQUIRE(!ant.backward || ant.position > 0,
                     "snapshot: backward ant already home" + at(pos));
  }
  rng_.load_state(r);
  ant_hops_ = r.size();
  control_bytes_ = r.size();
  ants_launched_ = r.size();
  ants_completed_ = r.size();
}

void AntRoutingSystem::account_hop(const Ant& ant) {
  ++ant_hops_;
  AGENTNET_COUNT(kAntHops);
  control_bytes_ += 16 + 8 * ant.path.size();
}

void AntRoutingSystem::advance_forward(Ant& ant, const Graph& graph,
                                       std::span<const double> hop_delays) {
  const NodeId at = ant.path.back();
  if (ant.path.size() > config_.ant_ttl) {
    ant.path.clear();  // ttl exhausted: die
    return;
  }
  // Loop avoidance: stamp the path once, then test each neighbour in O(1).
  if (++path_stamp_ == 0) {  // wrapped: clear stale stamps and restart
    std::fill(on_path_.begin(), on_path_.end(), 0);
    path_stamp_ = 1;
  }
  for (const NodeId v : ant.path) on_path_[v] = path_stamp_;
  // Candidates: current neighbours not on the path, weighted (τ+ε)^β. The
  // adjacency and the pheromone row are both ascending by id, so one merge
  // walk finds each neighbour's entry.
  candidates_.clear();
  weights_.clear();
  double total = 0.0;
  const auto& row = pheromone_[at];
  auto entry = row.begin();
  for (const NodeId v : graph.out_neighbors(at)) {
    if (on_path_[v] == path_stamp_) continue;
    while (entry != row.end() && entry->first < v) ++entry;
    const double w =
        entry != row.end() && entry->first == v
            ? std::pow(entry->second + config_.exploration, config_.beta)
            : unexplored_weight_;
    candidates_.push_back(v);
    weights_.push_back(w);
    total += w;
  }
  if (candidates_.empty()) {
    ant.path.clear();  // dead end: die
    return;
  }
  double pick = rng_.uniform01() * total;
  std::size_t chosen = candidates_.size() - 1;
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    pick -= weights_[i];
    if (pick <= 0.0) {
      chosen = i;
      break;
    }
  }
  const NodeId next = candidates_[chosen];
  ant.path.push_back(next);
  // The ant experiences the queueing delay of the link it just crossed
  // (node `at`'s out-queue). An empty span is an idle data plane: every
  // hop costs exactly 1.0, so trip_time == hop count bit-for-bit.
  ant.trip_time += hop_delays.empty() ? 1.0 : hop_delays[at];
  account_hop(ant);
  if (is_gateway_[next]) {
    // Turn around: the backward ant starts at the gateway end.
    ant.backward = true;
    ant.position = ant.path.size() - 1;
  }
}

void AntRoutingSystem::advance_backward(Ant& ant, const Graph& graph,
                                        std::span<const double> gateway_bias) {
  // The ant sits at path[position] and wants to hop to path[position-1],
  // reinforcing that node's entry toward where the ant came from.
  AGENTNET_ASSERT(ant.position > 0);
  const NodeId from = ant.path[ant.position];
  const NodeId to = ant.path[ant.position - 1];
  if (!graph.has_edge(from, to)) {
    ant.path.clear();  // the return path broke under it: die
    return;
  }
  ant.position -= 1;
  account_hop(ant);
  // Reinforce to → (node the backward ant just came from): that is the
  // forward direction toward the gateway. Deposit scales inversely with
  // path quality — hop count historically, measured trip time in kDelay
  // mode (AntNet's goodness). On an idle plane trip_time equals the hop
  // count exactly, so the two modes coincide bit-for-bit at zero load.
  double amount =
      config_.reinforcement == AntReinforcement::kDelay
          ? config_.deposit / ant.trip_time
          : config_.deposit / static_cast<double>(ant.path.size() - 1);
  // Deposits through a loaded gateway are damped by the balancer's bias
  // (exactly 1.0 when balancing is off or the load is uniform; multiplying
  // by 1.0 is an IEEE identity, preserving bit-identical goldens).
  if (!gateway_bias.empty()) amount *= gateway_bias[ant.path.back()];
  pheromone_[to][from] += amount;
  if (ant.position == 0) {
    ++ants_completed_;
    ant.path.clear();  // home again
  }
}

void AntRoutingSystem::step(const Graph& graph, std::size_t now) {
  step(graph, now, {}, {});
}

void AntRoutingSystem::step(const Graph& graph, std::size_t now,
                            std::span<const double> hop_delays,
                            std::span<const double> gateway_bias) {
  (void)now;
  AGENTNET_REQUIRE(graph.node_count() == pheromone_.size(),
                   "graph size does not match ant system");
  AGENTNET_REQUIRE(hop_delays.empty() ||
                       hop_delays.size() == pheromone_.size(),
                   "hop delay span size mismatch");
  AGENTNET_REQUIRE(gateway_bias.empty() ||
                       gateway_bias.size() == pheromone_.size(),
                   "gateway bias span size mismatch");

  // Evaporation, with pruning of negligible residue. Rows are disjoint, so
  // they fan over the agent engine; an inactive engine runs the exact
  // serial row loop.
  const double keep = 1.0 - config_.evaporation;
  par_.for_each(pheromone_.size(), [&](std::size_t u) {
    auto& table = pheromone_[u];
    for (auto it = table.begin(); it != table.end();) {
      it->second *= keep;
      if (it->second < 1e-9)
        it = table.erase(it);
      else
        ++it;
    }
  });

  // Launches (gateways sink ants, they do not source them).
  for (NodeId v = 0; v < pheromone_.size(); ++v) {
    if (is_gateway_[v]) continue;
    if (ants_.size() >= config_.max_ants) break;
    if (rng_.bernoulli(config_.launch_probability)) {
      Ant ant;
      ant.path.push_back(v);
      ants_.push_back(std::move(ant));
      ++ants_launched_;
      AGENTNET_COUNT(kAntsLaunched);
    }
  }

  // Advance every ant one hop.
  for (auto& ant : ants_) {
    if (ant.path.empty()) continue;
    if (config_.ant_loss_probability > 0.0 &&
        rng_.bernoulli(config_.ant_loss_probability)) {
      ant.path.clear();  // lost in transit
      AGENTNET_COUNT(kAgentsLost);
      continue;
    }
    if (ant.backward)
      advance_backward(ant, graph, gateway_bias);
    else
      advance_forward(ant, graph, hop_delays);
  }
  std::erase_if(ants_, [](const Ant& ant) { return ant.path.empty(); });
}

RoutingTables AntRoutingSystem::snapshot_tables(std::size_t now) const {
  const std::size_t n = pheromone_.size();
  RoutingTables tables(n);
  // Per-node argmax over the pheromone row; true when the node gets an
  // entry. First-wins on ties (strict >), same as the historical loop.
  const auto best_entry = [&](NodeId u, RouteEntry& entry) {
    if (is_gateway_[u]) return false;
    const auto& table = pheromone_[u];
    if (table.empty()) return false;
    auto best = table.begin();
    for (auto it = std::next(table.begin()); it != table.end(); ++it)
      if (it->second > best->second) best = it;
    entry.next_hop = best->first;
    entry.gateway = kInvalidNode;  // ants route toward *any* gateway
    entry.hops = 1;                // unknown; validity is walk-checked
    entry.installed_at = now;
    return true;
  };
  if (par_.active() && n >= 2) {
    // Argmax scans fan over the engine into per-node slots; the table is
    // filled serially in node order, exactly like the serial loop.
    std::vector<RouteEntry> entries(n);
    std::vector<char> present(n, 0);
    par_.for_each(n, [&](std::size_t u) {
      RouteEntry entry;
      if (best_entry(static_cast<NodeId>(u), entry)) {
        entries[u] = entry;
        present[u] = 1;
      }
    });
    for (NodeId u = 0; u < n; ++u)
      if (present[u]) tables.force(u, entries[u]);
    return tables;
  }
  for (NodeId u = 0; u < n; ++u) {
    RouteEntry entry;
    if (best_entry(u, entry)) tables.force(u, entry);
  }
  return tables;
}

}  // namespace agentnet
