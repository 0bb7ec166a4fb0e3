#include "core/mapping_task.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <optional>
#include <string>

#include "common/dense_bitset.hpp"
#include "core/colocation.hpp"
#include "geom/spatial_grid.hpp"
#include "obs/obs.hpp"

namespace agentnet {

namespace {

constexpr std::size_t kNoStepBudget = std::numeric_limits<std::size_t>::max();

/// Union-find for radius-1 meetings: agents on the same node or on nodes
/// joined by a link (either direction carries the exchange) share a group,
/// transitively.
class AgentUnion {
 public:
  explicit AgentUnion(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

/// Reused per-step storage for in_range_groups' geometric prefilter.
struct MeetingScratch {
  std::optional<SpatialGrid> grid;
  std::vector<Vec2> positions;       ///< Agent positions, index = agent idx.
  std::vector<std::size_t> nearby;   ///< Grid query output, ascending.
};

std::vector<std::vector<std::size_t>> in_range_groups(
    const std::vector<MappingAgent>& agents, const Graph& graph,
    const World& world, MeetingScratch& scratch) {
  // CAUTION: the output group order depends on the exact unite(i, j) call
  // sequence (it decides which index ends up as each set's root), and the
  // exchange phase draws fault RNG per group in that order — so any
  // candidate filter must preserve the naive (i ascending, j > i ascending)
  // pair order exactly. The grid query returns ascending indices, and on
  // geometric worlds every relation-satisfying pair is within
  // max_base_range (effective ranges never exceed it, and fault masks only
  // remove edges), so the prefilter drops only pairs the naive loop would
  // have skipped anyway.
  AgentUnion uf(agents.size());
  if (world.geometric() && !agents.empty()) {
    const double radius = world.radio().max_base_range();
    if (!scratch.grid) scratch.grid.emplace(world.bounds(), radius);
    scratch.positions.resize(agents.size());
    for (std::size_t i = 0; i < agents.size(); ++i)
      scratch.positions[i] = world.positions()[agents[i].location()];
    scratch.grid->rebuild(scratch.positions);
    for (std::size_t i = 0; i < agents.size(); ++i) {
      const NodeId a = agents[i].location();
      scratch.grid->query(scratch.positions[i], radius, scratch.nearby);
      for (std::size_t j : scratch.nearby) {
        if (j <= i) continue;
        const NodeId b = agents[j].location();
        if (a == b || graph.has_edge(a, b) || graph.has_edge(b, a))
          uf.unite(i, j);
      }
    }
  } else {
    // fixed() worlds pin an abstract graph over synthetic geometry; no
    // distance bound relates edges to positions, so check every pair.
    for (std::size_t i = 0; i < agents.size(); ++i) {
      for (std::size_t j = i + 1; j < agents.size(); ++j) {
        const NodeId a = agents[i].location();
        const NodeId b = agents[j].location();
        if (a == b || graph.has_edge(a, b) || graph.has_edge(b, a))
          uf.unite(i, j);
      }
    }
  }
  std::vector<std::vector<std::size_t>> by_root(agents.size());
  for (std::size_t i = 0; i < agents.size(); ++i)
    by_root[uf.find(i)].push_back(i);
  std::vector<std::vector<std::size_t>> groups;
  for (auto& g : by_root)
    if (g.size() >= 2) groups.push_back(std::move(g));
  return groups;
}

}  // namespace

MappingTaskResult run_mapping_task(World& world,
                                   const MappingTaskConfig& config, Rng rng) {
  // Config-bounds validation, mirroring the routing task's discipline:
  // garbage is rejected up front instead of silently misbehaving.
  AGENTNET_REQUIRE(config.population >= 1, "population must be >= 1");
  AGENTNET_REQUIRE(config.agent.randomness >= 0.0 &&
                       config.agent.randomness <= 1.0,
                   "agent randomness must be in [0,1]");
  for (const MappingAgentConfig& member : config.team)
    AGENTNET_REQUIRE(member.randomness >= 0.0 && member.randomness <= 1.0,
                     "team member randomness must be in [0,1]");
  AGENTNET_REQUIRE(config.comm_radius <= 1, "comm_radius must be 0 or 1");
  AGENTNET_REQUIRE(config.stigmergy_capacity >= 1,
                   "stigmergy capacity must be >= 1");
  TaskLoop loop(config);
  const FaultPlan& plan = loop.plan();
  const std::size_t n = world.node_count();
  MappingTaskResult result;
  result.truth_edges = config.truth_edges_override
                           ? *config.truth_edges_override
                           : world.graph().edge_count();
  AGENTNET_REQUIRE(result.truth_edges > 0, "mapping an edgeless network");
  // Edge ids for every knowledge set of the run: the step-0 arcs in row
  // order. Only a world that advances can show an agent an arc outside
  // them; the sense phase registers those first.
  EdgeIndex index(world.graph());

  const std::vector<MappingAgentConfig> roster =
      config.team.empty()
          ? std::vector<MappingAgentConfig>(
                static_cast<std::size_t>(config.population), config.agent)
          : config.team;
  std::vector<MappingAgent> agents;
  agents.reserve(roster.size());
  for (std::size_t a = 0; a < roster.size(); ++a) {
    const NodeId start = static_cast<NodeId>(rng.index(n));
    agents.emplace_back(static_cast<int>(a), start, index, roster[a],
                        rng.fork(static_cast<std::uint64_t>(a) + 1));
    AGENTNET_OBS_EVENT(kSpawn, 0, static_cast<std::int64_t>(a),
                       static_cast<std::int64_t>(start));
  }

  StigmergyBoard board(n, config.stigmergy_horizon,
                       config.stigmergy_capacity);
  // The intra-run agent engine. Every recovery path draws its config from
  // `roster`, so whether any agent is stigmergic is a run constant — the
  // decide phase needs it: stigmergic agents must see footprints stamped
  // earlier in the same step, which forces the serial decide order.
  const AgentParallel& par = loop.par();
  const bool stigmergic_roster =
      std::any_of(roster.begin(), roster.end(),
                  [](const MappingAgentConfig& member) {
                    return member.stigmergy != StigmergyMode::kOff;
                  });
  std::vector<MeetingPlan> meetings;
  std::vector<double> fractions;
  // The monitoring entity's collected map (completeness is tracked against
  // the step-0 truth; pair it with advance_world only for rough readings).
  DenseBitset monitor_map;  // grows with the index as agents upload
  if (config.monitor_node)
    AGENTNET_REQUIRE(*config.monitor_node < n,
                     "monitor node out of range");
  std::vector<std::size_t> decide_order(agents.size());
  std::iota(decide_order.begin(), decide_order.end(), 0);
  MeetingScratch meeting_scratch;

  loop.fork_faults(rng);
  AgentSlots slots(roster.size(), plan.watchdog_ttl);

  // Knowledge is measured against the step-0 truth; with advance_world the
  // per-step truth is used instead (stale knowledge stops counting).
  const auto knowledge_fraction = [&](const MappingAgent& agent) {
    // With an explicit truth override (flapping-link worlds) the agent is
    // graded against the underlying full topology: every edge exists and
    // is eventually observable, so plain completeness applies.
    if (!config.advance_world || config.truth_edges_override)
      return agent.knowledge().completeness(result.truth_edges);
    const Graph& truth = world.graph();
    if (truth.edge_count() == 0) return 1.0;
    return static_cast<double>(
               agent.knowledge().known_edge_count_in(truth)) /
           static_cast<double>(truth.edge_count());
  };

  // Checkpoint/restore. Mapping agents are reconstructed from the roster
  // (every recovery path uses roster[slot], so the slot map determines
  // each agent's config); the decide-order permutation is carried because
  // it is persistent — reshuffled in place, not rebuilt per step.
  const auto save_run = [&](snapshot::ByteWriter& w) {
    rng.save_state(w);
    world.save_state(w);
    board.save_state(w);
    loop.save_faults(w);
    slots.save_state(w);
    w.pod_vec(decide_order);
    w.size(agents.size());
    for (const MappingAgent& agent : agents) agent.save_state(w);
    if (config.monitor_node)
      index.save_pairs(monitor_map, w);
    else
      monitor_map.save_state(w);
    w.f64(result.monitor_completeness);
    w.boolean(result.monitor_finished);
    w.size(result.monitor_finishing_time);
    w.pod_vec(result.mean_knowledge);
    w.pod_vec(result.min_knowledge);
    w.size(result.migration_bytes);
    w.size(result.agents_lost);
    w.size(result.agents_respawned);
  };
  const auto load_run = [&](snapshot::ByteReader& r) {
    rng.load_state(r);
    world.load_state(r);
    board.load_state(r);
    loop.load_faults(r);
    slots.load_state(r);
    r.pod_vec(decide_order);
    const std::size_t live = r.counted(8);
    AGENTNET_REQUIRE(live == slots.slots().size(),
                     "snapshot: roster slot map size mismatch");
    agents.clear();
    agents.reserve(live);
    for (std::size_t i = 0; i < live; ++i) {
      agents.emplace_back(0, NodeId{0}, index, roster[slots.slot(i)], Rng(0));
      agents.back().load_state(r, index);
    }
    if (config.monitor_node) {
      monitor_map = index.load_pairs(r);
    } else {
      const std::size_t at = r.position();
      monitor_map.load_state(r);
      AGENTNET_REQUIRE(monitor_map.size() == 0,
                       "snapshot: monitor map without a monitor at byte " +
                           std::to_string(at));
    }
    result.monitor_completeness = r.f64();
    result.monitor_finished = r.boolean();
    result.monitor_finishing_time = r.size();
    r.pod_vec(result.mean_knowledge);
    r.pod_vec(result.min_knowledge);
    result.migration_bytes = r.size();
    result.agents_lost = r.size();
    result.agents_respawned = r.size();
  };

  // Steps 0..max_steps; a budget of the largest size_t must not wrap to an
  // empty loop.
  const std::size_t end =
      config.max_steps + (config.max_steps < kNoStepBudget ? 1 : 0);
  loop.run(world, end, save_run, load_run, [&](std::size_t t) {
    AGENTNET_OBS_PHASE(kStep);
    // The fault-masked view of this step's topology. Frozen mapping worlds
    // never advance their own clock, so the weather keys on the task step.
    const Graph& live = loop.live_graph(world, t);

    // Phase 0: watchdog recovery — roster slots silent for more than the
    // TTL are declared dead; any agent still occupying one is scrapped
    // (wedged or stranded) and a fresh replacement starts over on a
    // random live node.
    const std::vector<std::size_t> dead_slots =
        slots.reap_expired(agents, t, result.agents_lost);
    if (!dead_slots.empty()) {
      std::vector<NodeId> live_nodes;
      for (NodeId v = 0; v < static_cast<NodeId>(n); ++v)
        if (!loop.down(v)) live_nodes.push_back(v);
      for (std::size_t slot : dead_slots) {
        if (live_nodes.empty()) break;  // total blackout: retry later
        const NodeId at = live_nodes[loop.injector()->pick(live_nodes.size())];
        const int id = slots.launch(slot, t);
        agents.emplace_back(id, at, index, roster[slot],
                            rng.fork(static_cast<std::uint64_t>(id) + 1));
        ++result.agents_respawned;
        AGENTNET_COUNT(kWatchdogRespawns);
        AGENTNET_OBS_EVENT(kWatchdogRespawn, t, id,
                           static_cast<std::int64_t>(at));
      }
    }

    // Phase 1: every agent learns the out-edges of its node. Agents on a
    // crashed node are suspended: they sense nothing this step. Sensing
    // reads the frozen live graph and writes only the agent's own map, so
    // the engine fans it per agent (down() is a const read of the mask
    // live_graph() refreshed above).
    {
      AGENTNET_OBS_PHASE(kSense);
      // An advancing world can show an arc the index has not seen yet:
      // register it serially, so the fan-out below only reads the index.
      // Masks and weather on a frozen world only remove seeded arcs.
      if (config.advance_world)
        for (const MappingAgent& agent : agents)
          if (!loop.down(agent.location()))
            index.add_row(agent.location(),
                          live.out_neighbors(agent.location()));
      par.for_each(agents.size(), [&](std::size_t i) {
        MappingAgent& agent = agents[i];
        if (loop.down(agent.location())) return;
        agent.sense(live, t);
      });
    }

    // Phase 2: direct communication within co-located (or, with
    // comm_radius 1, in-range) groups. Pool first, then distribute, so
    // exchange is simultaneous (order-free).
    if (config.communication && agents.size() > 1) {
      AGENTNET_OBS_PHASE(kExchange);
      AGENTNET_REQUIRE(config.comm_radius <= 1,
                       "comm_radius must be 0 or 1");
      const auto groups =
          config.comm_radius == 0
              ? colocated_groups(agents)
              : in_range_groups(agents, live, world, meeting_scratch);
      // Plan pass (serial): membership, venue and the per-meeting
      // corruption draw, in group order — the exact RNG sequence of the
      // historical single-pass loop, which drew nothing while pooling.
      meetings.clear();
      {
        obs::ScopedPhase plan_phase(obs::Phase::kExchangePlan);
        for (const auto& group : groups) {
          // Members stranded on crashed nodes cannot take part; a
          // corrupted exchange (drawn once per meeting) discards the
          // whole payload.
          MeetingPlan meeting;
          if (loop.topology_faults()) {
            for (std::size_t idx : group)
              if (!loop.down(agents[idx].location()))
                meeting.talkers.push_back(idx);
          } else {
            meeting.talkers.assign(group.begin(), group.end());
          }
          if (meeting.talkers.size() < 2) continue;
          meeting.venue = agents[meeting.talkers[0]].location();
          meeting.corrupted = loop.corrupt_exchange();
          meetings.push_back(std::move(meeting));
        }
      }
      // Pooling (group-parallel): meetings are disjoint, so each can pool
      // and hand the pool to its own members concurrently — per-worker
      // pool, no events, no RNG. Every talker is in the pool, so adopting
      // it equals merging it (MapKnowledge::adopt).
      par.for_each_scratch(
          meetings.size(), [] { return KnowledgePool(); },
          [&](std::size_t m, KnowledgePool& pool) {
            const MeetingPlan& meeting = meetings[m];
            if (meeting.corrupted) return;
            pool.clear();
            for (std::size_t idx : meeting.talkers)
              pool.add(agents[idx].knowledge());
            for (std::size_t idx : meeting.talkers) agents[idx].adopt(pool);
          });
      commit_meetings(meetings, agents, t);
    }

    // Resilience: hearsay expires after the configured TTL — a crashed
    // region's links eventually stop being "known" second-hand and must be
    // re-observed or re-learned.
    if (plan.knowledge_ttl > 0)
      par.for_each(agents.size(), [&](std::size_t i) {
        agents[i].expire_second_hand(t, plan.knowledge_ttl);
      });

    // Monitor upload: every agent standing on the monitoring entity's node
    // hands over its full map (nothing uploads while the monitor is down).
    if (config.monitor_node && !loop.down(*config.monitor_node)) {
      for (const auto& agent : agents)
        if (agent.location() == *config.monitor_node)
          monitor_map.merge(agent.knowledge().combined_edges());
      result.monitor_completeness =
          static_cast<double>(monitor_map.count()) /
          static_cast<double>(result.truth_edges);
      if (!result.monitor_finished &&
          monitor_map.count() >= result.truth_edges) {
        result.monitor_finished = true;
        result.monitor_finishing_time = t;
      }
    }

    // Measurement + finishing check (knowledge is final for this step).
    {
      AGENTNET_OBS_PHASE(kMeasure);
      double min_fraction = 1.0;
      double sum_fraction = 0.0;
      // Per-agent fractions land in index slots and reduce in index order,
      // so the floating-point sum is bitwise the serial loop's.
      fractions.resize(agents.size());
      par.for_each(agents.size(), [&](std::size_t i) {
        fractions[i] = knowledge_fraction(agents[i]);
      });
      for (double f : fractions) {
        min_fraction = std::min(min_fraction, f);
        sum_fraction += f;
      }
      // An extinct team (every agent lost, watchdog off) knows nothing
      // and can never finish; record zeros rather than divide by zero.
      if (config.record_series) {
        result.mean_knowledge.push_back(
            agents.empty()
                ? 0.0
                : sum_fraction / static_cast<double>(agents.size()));
        result.min_knowledge.push_back(agents.empty() ? 0.0 : min_fraction);
      }
      AGENTNET_OBS_GAUGE(
          kKnowledge, t,
          agents.empty() ? 0.0
                         : sum_fraction / static_cast<double>(agents.size()));
      if (!agents.empty() && min_fraction >= 1.0) {
        result.finished = true;
        result.finishing_time = t;
        result.final_population = agents.size();
        AGENTNET_OBS_EVENT(kFinish, t);
        return true;
      }
    }

    // Phase 3+4: decide, stamp, move. Stigmergic agents decide in a fresh
    // random order each step and see footprints stamped earlier in the same
    // step — this is what disperses co-located identical-knowledge agents
    // (see DESIGN.md). Non-stigmergic agents ignore the board entirely, so
    // the ordering does not affect them.
    std::vector<NodeId> targets;
    {
      AGENTNET_OBS_PHASE(kDecide);
      // The permutation is persistent and reshuffled in place; it is only
      // rebuilt when faults changed the population (rebuilding every step
      // would perturb the fault-free shuffle sequence). A team that never
      // reads the board fans out and ignores it, yet the shuffle still
      // consumes the same run-RNG draws.
      if (decide_order.size() != agents.size()) {
        decide_order.resize(agents.size());
        std::iota(decide_order.begin(), decide_order.end(), 0);
      }
      rng.shuffle(std::span<std::size_t>(decide_order));
      targets = decide_targets(agents, decide_order, live, board, t, par,
                               stigmergic_roster);
    }
    {
      // Failure injection: a migrating agent can be lost on any hop — it
      // never arrives, and its carried map is gone.
      AGENTNET_OBS_PHASE(kMove);
      slots.migrate(agents, targets, loop, t, result, [](std::size_t) {});
    }

    if (config.advance_world) world.advance();
    return false;
  });
  result.final_population = agents.size();
  return result;
}

}  // namespace agentnet
