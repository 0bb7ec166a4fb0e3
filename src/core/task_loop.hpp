// The run skeleton the five tasks share (mapping, routing, the ant-colony
// and distance-vector baselines, loaded-network traffic). The paper runs
// both scenarios on one protocol: agents wander, and the task measures a
// fraction of the network over a converged window. TaskLoop owns that
// protocol — plan validation and the kSetup phase, the fault injector and
// live graph, restore/resume and the step-top checkpoint saves, the
// connectivity measurement, the kLiveFraction gauge and the metrics tick.
// A task supplies its step body and its state's save/load lambdas, which
// call back into the loop for the injector and the cache at their place in
// the task's field order, so checkpoint payloads keep their layout.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "common/agent_parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/stigmergy.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "fault/watchdog.hpp"
#include "obs/obs.hpp"
#include "routing/connectivity.hpp"
#include "sim/world.hpp"
#include "snapshot/snapshot.hpp"

namespace agentnet {

/// What every task config carries besides its own parameters; the five
/// task configs inherit it.
struct RunContext {
  /// The unified fault model: crash windows, blackouts, burst outages,
  /// in-transit agent loss, exchange corruption and the resilience
  /// policies. An inert plan keeps a task on exactly its fault-free path.
  /// See fault/fault_plan.hpp and docs/ROBUSTNESS.md.
  FaultPlan faults;
  /// Intra-run parallelism (AGENTNET_AGENT_THREADS): the per-agent phases
  /// each task config names, the connectivity walks and a live world's
  /// upkeep fan over the run's one team. Bit-identical at every thread
  /// count; threads = 1 (the default) is the exact serial path.
  AgentParallelConfig agent_parallel = AgentParallelConfig::from_env();
  /// Checkpoint/restore handle for this run (nullptr = disabled). Owned by
  /// the caller; see snapshot/snapshot.hpp and docs/ROBUSTNESS.md.
  snapshot::RunCheckpointPort* checkpoint = nullptr;
};

/// When a task forks its fault stream (rng.fork(0xFA11)).
enum class FaultFork {
  /// Only for a plan that does something, so an inert plan leaves every
  /// fault-free sequence untouched; the state carries a presence flag.
  kWhenLive,
  /// Always, with no flag: the routing task forked before FaultPlan
  /// existed, and its fault-free sequences depend on the fork.
  kAlways,
};

class TaskLoop {
 public:
  /// Validates the plan (ConfigError) and opens the kSetup phase, which
  /// run() closes.
  explicit TaskLoop(const RunContext& context);

  const FaultPlan& plan() const { return plan_; }
  /// The intra-run agent engine and its team, built once per run; a task
  /// hands the team to its live world (World::set_team).
  const AgentParallel& par() const { return par_; }

  /// Forks the fault stream from `rng`; call where the task always has.
  void fork_faults(Rng& rng, FaultFork fork = FaultFork::kWhenLive);
  /// nullptr when kWhenLive found the plan inert.
  FaultInjector* injector() { return injector_ ? &*injector_ : nullptr; }
  /// A task's own loss probability, or the plan's when it sets none.
  double agent_loss(double own) const {
    return own != 0.0 ? own : plan_.agent_loss_probability;
  }
  bool topology_faults() const {
    return injector_ && plan_.topology_faults();
  }
  /// The fault-masked view of `world` at `step` (frozen mapping worlds
  /// pass the task step, every other task the world's own).
  const Graph& live_graph(const World& world, std::size_t step) {
    return injector_ ? injector_->live_graph(world, step) : world.graph();
  }
  /// True when `node` was down in the last live_graph() mask.
  bool down(NodeId node) const { return injector_ && injector_->down(node); }
  /// Event draws; each consumes the stream only when enabled.
  bool lose_in_transit() {
    return injector_ && plan_.agent_loss_probability > 0.0 &&
           injector_->lose_in_transit();
  }
  bool corrupt_exchange() {
    return injector_ && plan_.exchange_failure_probability > 0.0 &&
           injector_->corrupt_exchange();
  }

  /// Fraction of nodes whose `tables` route reaches a gateway at the
  /// world's current step, also the kConnectivity gauge of step `t`. Under
  /// topology faults the walk runs on the live graph; otherwise the cache
  /// keyed on the world's epoch and the tables skips unchanged steps.
  double connectivity(std::size_t t, const World& world,
                      const RoutingTables& tables,
                      const std::vector<bool>& is_gateway);

  /// The injector (behind a flag under kWhenLive) and the cache, for the
  /// task's save/load lambdas.
  void save_faults(snapshot::ByteWriter& w) const;
  void load_faults(snapshot::ByteReader& r);
  void save_cache(snapshot::ByteWriter& w) const { cache_.save_state(w); }
  void load_cache(snapshot::ByteReader& r) { cache_.load_state(r); }

  /// Runs `step(t)` from 0, or from the restored record's step, up to
  /// `end`, saving at the top of every due step; returns `end`, or the
  /// step whose body returned true (a finished mapping team), which ticks
  /// no metrics row.
  template <typename Save, typename Load, typename Step>
  std::size_t run(const World& world, std::size_t end, const Save& save,
                  const Load& load, Step&& step) {
    setup_phase_.stop();
    std::size_t t = 0;
    if (checkpoint_ && checkpoint_->resuming()) t = checkpoint_->restore(load);
    for (; t < end; ++t) {
      if (checkpoint_ && checkpoint_->save_due(t)) checkpoint_->save(t, save);
      bool done = false;
      if constexpr (std::is_void_v<decltype(step(t))>)
        step(t);
      else
        done = step(t);
      if (topology_faults() && AGENTNET_OBS_METRICS_WANT(t))
        AGENTNET_OBS_GAUGE(kLiveFraction, t,
                           injector_->live_fraction(world.node_count()));
      if (done) return t;
      AGENTNET_OBS_METRICS_TICK(t);
    }
    return end;
  }

 private:
  FaultPlan plan_;
  AgentParallel par_;
  snapshot::RunCheckpointPort* checkpoint_;
  obs::ScopedPhase setup_phase_;
  FaultFork fork_ = FaultFork::kWhenLive;
  std::optional<FaultInjector> injector_;
  ConnectivityCache cache_;
};

/// Mean and stddev of a per-step series from `measure_from` on.
RunningStats window_stats(std::span<const double> series,
                          std::size_t measure_from);

/// The decide phase of a team that may read the stigmergy board. Where
/// no agent reads it (`board_readers` false), each decision depends only
/// on the frozen live graph and the agent's own RNG stream, so the engine
/// fans them per agent. Otherwise agents decide serially in `order` and a
/// stigmergic agent stamps its exit at once, so later deciders this step
/// see the footprint: the dispersion mechanism.
template <typename Agent>
std::vector<NodeId> decide_targets(std::vector<Agent>& agents,
                                   std::span<const std::size_t> order,
                                   const Graph& live, StigmergyBoard& board,
                                   std::size_t t, const AgentParallel& par,
                                   bool board_readers) {
  std::vector<NodeId> targets(agents.size());
  if (par.active() && !board_readers) {
    par.for_each(agents.size(), [&](std::size_t i) {
      targets[i] = agents[i].decide(live, board, t);
    });
    return targets;
  }
  for (std::size_t idx : order) {
    Agent& agent = agents[idx];
    targets[idx] = agent.decide(live, board, t);
    if (agent.stigmergic() && targets[idx] != agent.location())
      board.stamp(agent.location(), targets[idx], t);
  }
  return targets;
}

/// Erases the elements flagged in `dead`, keeping order.
template <typename T>
void erase_flagged(std::vector<T>& items, const std::vector<char>& dead) {
  std::size_t write = 0;
  for (std::size_t i = 0; i < items.size(); ++i)
    if (!dead[i]) {
      if (write != i) items[write] = std::move(items[i]);
      ++write;
    }
  items.erase(items.begin() + static_cast<std::ptrdiff_t>(write),
              items.end());
}

/// The roster slot of each live agent (parallel to the task's agent
/// vector), the slots' watchdog heartbeats and the next agent id. Every
/// recovery path fills a vacant slot, so live agents hold distinct slots
/// below the roster size.
class AgentSlots {
 public:
  /// Agents 0..roster-1 in slots 0..roster-1; `watchdog_ttl` 0 disables
  /// the watchdog.
  AgentSlots(std::size_t roster, std::size_t watchdog_ttl);

  std::size_t slot(std::size_t agent) const { return slot_of_[agent]; }
  std::span<const std::size_t> slots() const { return slot_of_; }

  /// Records an agent launched into `slot` at step `t` (the caller
  /// appends it to its vector) and returns its id.
  int launch(std::size_t slot, std::size_t t) {
    slot_of_.push_back(slot);
    watchdog_.beat(slot, t);
    return next_id_++;
  }

  /// Watchdog recovery, first half: returns the slots silent past the TTL
  /// at step `t`, in slot order, and scraps the agent still holding one
  /// (wedged or stranded), counting it in `lost`. The task relaunches.
  template <typename Agent>
  std::vector<std::size_t> reap_expired(std::vector<Agent>& agents,
                                        std::size_t t, std::size_t& lost) {
    std::vector<std::size_t> dead_slots;
    if (!watchdog_.enabled()) return dead_slots;
    for (std::size_t slot = 0; slot < watchdog_.slots(); ++slot)
      if (watchdog_.expired(slot, t)) dead_slots.push_back(slot);
    if (dead_slots.empty()) return dead_slots;
    constexpr std::size_t kNoAgent = static_cast<std::size_t>(-1);
    std::vector<std::size_t> slot_agent(watchdog_.slots(), kNoAgent);
    for (std::size_t i = 0; i < agents.size(); ++i)
      slot_agent[slot_of_[i]] = i;
    std::vector<char> scrapped(agents.size(), 0);
    bool any_scrapped = false;
    for (std::size_t slot : dead_slots) {
      const std::size_t idx = slot_agent[slot];
      if (idx != kNoAgent) {
        scrapped[idx] = 1;
        any_scrapped = true;
        ++lost;
        AGENTNET_COUNT(kAgentsLost);
        AGENTNET_OBS_EVENT(kLost, t, agents[idx].id());
      }
    }
    if (any_scrapped) compact(agents, scrapped);
    return dead_slots;
  }

  /// The move phase: each agent whose target differs from its location
  /// is lost in transit (per the plan's draw) or migrates — metering its
  /// size into `result.migration_bytes` and beating its slot. Every
  /// survivor moves to its target and then runs `arrived(idx)`; the lost
  /// are counted in `result.agents_lost` and compacted away at the end.
  template <typename Agent, typename Result, typename Arrived>
  void migrate(std::vector<Agent>& agents, const std::vector<NodeId>& targets,
               TaskLoop& loop, std::size_t t, Result& result,
               Arrived&& arrived) {
    std::vector<char> lost(agents.size(), 0);
    bool any_lost = false;
    for (std::size_t idx = 0; idx < agents.size(); ++idx) {
      if (targets[idx] != agents[idx].location()) {
        if (loop.lose_in_transit()) {
          lost[idx] = 1;
          any_lost = true;
          ++result.agents_lost;
          AGENTNET_COUNT(kAgentsLost);
          AGENTNET_OBS_EVENT(kLost, t, agents[idx].id());
          continue;
        }
        result.migration_bytes += agents[idx].state_size_bytes();
        watchdog_.beat(slot_of_[idx], t);
        AGENTNET_COUNT(kAgentHops);
        AGENTNET_OBS_EVENT(kMove, t, agents[idx].id(),
                           static_cast<std::int64_t>(agents[idx].location()),
                           static_cast<std::int64_t>(targets[idx]));
      }
      agents[idx].move_to(targets[idx]);
      arrived(idx);
    }
    if (any_lost) compact(agents, lost);
  }

  /// Checkpoint support: the heartbeats, the slot map, the next id.
  void save_state(snapshot::ByteWriter& w) const;
  /// Throws ConfigError, naming the byte offset, on a slot outside the
  /// roster or a slot held twice.
  void load_state(snapshot::ByteReader& r);

 private:
  template <typename Agent>
  void compact(std::vector<Agent>& agents, const std::vector<char>& dead) {
    erase_flagged(agents, dead);
    erase_flagged(slot_of_, dead);
  }

  AgentWatchdog watchdog_;
  std::vector<std::size_t> slot_of_;
  int next_id_;
};

}  // namespace agentnet
