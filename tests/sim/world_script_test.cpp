// Shared world script, sim level (ctest label: perf): a world replaying a
// WorldScript must be indistinguishable from the live world it was
// recorded from — same graph, same CSR rows, same epochs, same counter
// increments and trace events every step — across range quantization and
// shard thread counts, checkpoint/restore, past the script's end and across
// upkeep reconfigurations (docs/PERFORMANCE.md, "Shared world script").
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "core/routing_task.hpp"
#include "obs/obs.hpp"
#include "sim/world.hpp"
#include "sim/world_script.hpp"
#include "snapshot/bytes.hpp"

namespace agentnet {
namespace {

class EnvGuard {
 public:
  EnvGuard(const char* name, const std::string& value) : name_(name) {
    ::setenv(name, value.c_str(), 1);
  }
  ~EnvGuard() { ::unsetenv(name_); }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  const char* name_;
};

RoutingScenario churn_scenario(LinkPolicy policy, std::uint64_t seed) {
  RoutingScenarioParams params;
  params.node_count = 45;
  params.gateway_count = 4;
  params.bounds = {{0.0, 0.0}, {420.0, 420.0}};
  params.trace_steps = 60;
  params.policy = policy;
  // Fast drain: ranges shrink every step and some batteries die, so the
  // live battery events ride along with the replayed topology.
  params.battery = {1.0, 0.02};
  return RoutingScenario(params, seed);
}

/// A world plus what its last advance() emitted: counter increments and
/// trace events, from a private telemetry slot.
struct Probe {
  World world;
  obs::RunObs slot;
  std::array<std::uint64_t, obs::kCounterCount> counter_delta{};
  std::vector<obs::TraceEvent> events;

  explicit Probe(World w) : world(std::move(w)) { slot.trace.enable(); }
  void advance() {
    obs::ObsRunScope scope(slot);
    const obs::MetricsSnapshot before = obs::snapshot(slot.counters);
    slot.trace.clear();
    world.advance();
    const obs::MetricsSnapshot after = obs::snapshot(slot.counters);
    for (std::size_t i = 0; i < obs::kCounterCount; ++i)
      counter_delta[i] = after.values[i] - before.values[i];
    events = slot.trace.events();
  }
};

void expect_same(const Probe& replay, const Probe& live,
                 const std::string& where) {
  ASSERT_EQ(replay.world.step(), live.world.step()) << where;
  ASSERT_EQ(replay.world.positions(), live.world.positions()) << where;
  ASSERT_EQ(replay.world.graph(), live.world.graph()) << where;
  ASSERT_EQ(replay.world.csr(), live.world.csr()) << where;
  ASSERT_EQ(replay.world.csr(), CsrView(replay.world.graph())) << where;
  ASSERT_EQ(replay.world.epoch(), live.world.epoch()) << where;
  ASSERT_EQ(replay.world.state_epoch(), live.world.state_epoch()) << where;
  ASSERT_EQ(replay.counter_delta, live.counter_delta) << where;
  ASSERT_EQ(replay.events, live.events) << where;
}

TEST(WorldScriptTest, ReplayMatchesLiveAcrossQuantumAndShardThreads) {
  for (const char* threads : {"1", "7"}) {
    for (const char* quantum : {"0", "6.5"}) {
      EnvGuard threads_env("AGENTNET_TOPO_SHARD_THREADS", threads);
      EnvGuard quantum_env("AGENTNET_TOPO_RANGE_QUANTUM", quantum);
      for (LinkPolicy policy :
           {LinkPolicy::kDirected, LinkPolicy::kSymmetricAnd,
            LinkPolicy::kSymmetricOr}) {
        const RoutingScenario scenario =
            churn_scenario(policy, 31 + static_cast<std::uint64_t>(policy));
        World recorder = scenario.make_world();
        const WorldScript script = WorldScript::record(recorder, 50);
        ASSERT_EQ(script.steps(), 50u);
        Probe live(scenario.make_world());
        Probe replay(scenario.make_world(&script));
        ASSERT_EQ(replay.world.script(), &script);
        const std::string mode = std::string("threads=") + threads +
                                 " quantum=" + quantum + " policy=" +
                                 std::to_string(static_cast<int>(policy));
        std::size_t changed_steps = 0;
        for (int step = 0; step < 50; ++step) {
          const std::uint64_t epoch = live.world.epoch();
          live.advance();
          replay.advance();
          if (live.world.epoch() != epoch) ++changed_steps;
          expect_same(replay, live, mode + " step " + std::to_string(step));
        }
        EXPECT_GT(changed_steps, 10u) << mode << ": too little churn";
        EXPECT_EQ(replay.world.script(), &script)
            << "replay stays attached while the script lasts";
      }
    }
  }
}

TEST(WorldScriptTest, CheckpointMidReplayResumesTheReplay) {
  for (const char* threads : {"1", "7"}) {
    EnvGuard threads_env("AGENTNET_TOPO_SHARD_THREADS", threads);
    const RoutingScenario scenario =
        churn_scenario(LinkPolicy::kSymmetricAnd, 5);
    World recorder = scenario.make_world();
    const WorldScript script = WorldScript::record(recorder, 45);
    Probe live(scenario.make_world());
    Probe first(scenario.make_world(&script));
    for (int step = 0; step < 20; ++step) {
      live.advance();
      first.advance();
    }
    snapshot::ByteWriter w;
    first.world.save_state(w);
    snapshot::ByteWriter reference;
    live.world.save_state(reference);
    ASSERT_EQ(w.bytes(), reference.bytes())
        << "a replaying world checkpoints the live world's bytes";
    Probe resumed(scenario.make_world(&script));
    snapshot::ByteReader r(w.bytes());
    resumed.world.load_state(r);
    for (int step = 20; step < 45; ++step) {
      live.advance();
      resumed.advance();
      expect_same(resumed, live,
                  std::string("threads=") + threads + " step " +
                      std::to_string(step));
    }
  }
}

TEST(WorldScriptTest, PastTheScriptEndTheWorldGoesLive) {
  const RoutingScenario scenario = churn_scenario(LinkPolicy::kDirected, 8);
  World recorder = scenario.make_world();
  const WorldScript script = WorldScript::record(recorder, 20);
  Probe live(scenario.make_world());
  Probe replay(scenario.make_world(&script));
  for (int step = 0; step < 40; ++step) {
    live.advance();
    replay.advance();
    expect_same(replay, live, "step " + std::to_string(step));
  }
  EXPECT_EQ(replay.world.script(), nullptr);
}

TEST(WorldScriptTest, UpkeepReconfigurationDetachesTheScript) {
  const RoutingScenario scenario =
      churn_scenario(LinkPolicy::kSymmetricOr, 12);
  World recorder = scenario.make_world();
  const WorldScript script = WorldScript::record(recorder, 40);
  Probe live(scenario.make_world());
  Probe replay(scenario.make_world(&script));
  for (int step = 0; step < 40; ++step) {
    // Clearing the (absent) link weather is still a reconfiguration: it
    // opens a new epoch and sends a replaying world back to live upkeep.
    if (step == 10) {
      live.world.set_link_flapper(std::nullopt);
      replay.world.set_link_flapper(std::nullopt);
      EXPECT_EQ(replay.world.script(), nullptr);
    }
    if (step == 25) {
      replay.world.set_script(&script);  // re-attach mid-run
      live.world.set_link_flapper(std::nullopt);
      replay.world.set_link_flapper(std::nullopt);
      EXPECT_EQ(replay.world.script(), nullptr);
    }
    live.advance();
    replay.advance();
    expect_same(replay, live, "step " + std::to_string(step));
  }
}

TEST(WorldScriptTest, RejectsWorldsItCannotRecordOrReplay) {
  const RoutingScenario scenario = churn_scenario(LinkPolicy::kDirected, 3);
  World advanced = scenario.make_world();
  advanced.advance();
  EXPECT_THROW(WorldScript::record(advanced, 5), ConfigError);
  World pinned = World::fixed(Graph(4));
  EXPECT_THROW(WorldScript::record(pinned, 5), ConfigError);
  World weather = scenario.make_world();
  weather.set_link_flapper(LinkFlapper(0.2, 3, 1));
  EXPECT_THROW(WorldScript::record(weather, 5), ConfigError);

  World recorder = scenario.make_world();
  const WorldScript script = WorldScript::record(recorder, 5);
  EXPECT_THROW(pinned.set_script(&script), ConfigError);
  RoutingScenarioParams small;
  small.node_count = 20;
  small.gateway_count = 2;
  small.trace_steps = 5;
  EXPECT_THROW(RoutingScenario(small, 1).make_world(&script), ConfigError);
}

TEST(WorldScriptTest, PaperScenarioScriptIsSmall) {
  // 300 steps of the paper's 250-node scenario: the edge changes and the
  // per-step records stay near 0.1 MB (docs/PERFORMANCE.md).
  const RoutingScenario scenario(RoutingScenarioParams{}, 2010);
  const ScenarioScript script(scenario, 300, true);
  EXPECT_EQ(script.world.steps(), 300u);
  EXPECT_EQ(script.oracle.size(), 300u);
  EXPECT_LT(script.world.memory_bytes(), 256u * 1024u);
  EXPECT_EQ(script.oracle_at(0), nullptr);
  EXPECT_NE(script.oracle_at(300), nullptr);
  EXPECT_EQ(script.oracle_at(301), nullptr);
}

}  // namespace
}  // namespace agentnet
