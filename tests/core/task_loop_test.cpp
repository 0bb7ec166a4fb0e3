// The shared run skeleton (core/task_loop.hpp): the live-agent slot map's
// checkpoint validation, on crafted byte streams and on a routing
// checkpoint whose slot map was tampered with, and the loop's fault fork.
#include "core/task_loop.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/mapping_task.hpp"
#include "core/routing_task.hpp"
#include "net/generators.hpp"

namespace agentnet {
namespace {

/// A slot-map record as AgentSlots::save_state writes it: the roster's
/// heartbeats, the slot of each live agent, the next agent id.
std::vector<std::uint8_t> slot_record(std::size_t roster,
                                      const std::vector<std::size_t>& slots,
                                      int next_id) {
  snapshot::ByteWriter w;
  w.pod_vec(std::vector<std::size_t>(roster, 0));
  w.pod_vec(slots);
  w.scalar(next_id);
  return w.take();
}

void expect_rejected(const std::vector<std::uint8_t>& bytes,
                     const std::string& what) {
  AgentSlots slots(3, 5);
  snapshot::ByteReader r(bytes);
  try {
    slots.load_state(r);
    FAIL() << "bad slot map accepted; expected: " << what;
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

TEST(AgentSlotsTest, ValidRecordRoundTrips) {
  const std::vector<std::uint8_t> bytes = slot_record(3, {2, 0}, 7);
  AgentSlots slots(3, 5);
  snapshot::ByteReader r(bytes);
  slots.load_state(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(slots.slot(0), 2u);
  EXPECT_EQ(slots.slot(1), 0u);
  EXPECT_EQ(slots.launch(1, 4), 7);
  snapshot::ByteWriter w;
  slots.save_state(w);
  snapshot::ByteReader again(w.bytes());
  AgentSlots copy(3, 5);
  copy.load_state(again);
  EXPECT_TRUE(std::ranges::equal(copy.slots(),
                                 std::vector<std::size_t>{2, 0, 1}));
}

// Heartbeats take 8 + 3·8 bytes; the slot list's count sits at byte 32,
// so slot i sits at byte 40 + 8·i.
TEST(AgentSlotsTest, OutOfRangeSlotRejectedWithItsOffset) {
  expect_rejected(slot_record(3, {0, 3, 1}, 4),
                  "roster slot 3 outside a roster of 3 at byte 48");
}

TEST(AgentSlotsTest, DuplicateSlotRejectedWithItsOffset) {
  expect_rejected(slot_record(3, {1, 0, 1}, 4),
                  "roster slot 1 held twice at byte 56");
}

TEST(AgentSlotsTest, MigrateBeatsAndReapScrapsTheSilent) {
  struct Agent {
    int id_;
    NodeId location_ = 0;
    int id() const { return id_; }
    NodeId location() const { return location_; }
    void move_to(NodeId to) { location_ = to; }
    std::size_t state_size_bytes() const { return 10; }
  };
  struct Result {
    std::size_t migration_bytes = 0;
    std::size_t agents_lost = 0;
  } result;
  std::vector<Agent> agents{{0}, {1}, {2}, {3}};
  AgentSlots slots(4, 2);
  TaskLoop loop(RunContext{});  // inert plan: nobody is lost in transit
  std::vector<std::size_t> arrived;
  slots.migrate(agents, {0, 5, 0, 7}, loop, 2, result,
                [&](std::size_t idx) { arrived.push_back(idx); });
  EXPECT_EQ(result.migration_bytes, 20u);
  EXPECT_EQ(arrived, (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(agents[3].location(), 7u);
  // Slots 1 and 3 beat at step 2; slots 0 and 2 are silent since step 0.
  const std::vector<std::size_t> dead =
      slots.reap_expired(agents, 3, result.agents_lost);
  EXPECT_EQ(dead, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(result.agents_lost, 2u);
  ASSERT_EQ(agents.size(), 2u);
  EXPECT_EQ(agents[0].id(), 1);
  EXPECT_EQ(agents[1].id(), 3);
  EXPECT_TRUE(std::ranges::equal(slots.slots(),
                                 std::vector<std::size_t>{1, 3}));
  EXPECT_EQ(slots.launch(0, 3), 4);
}

// A routing checkpoint whose slot map names a slot outside the roster
// would let the next hop beat a heartbeat past the watchdog's array; a
// duplicate would break the bijection gateway respawn relies on. Both are
// refused at restore.
TEST(AgentSlotsTest, TamperedRoutingCheckpointRefused) {
  RoutingScenarioParams params;
  params.node_count = 50;
  params.gateway_count = 4;
  params.bounds = {{0.0, 0.0}, {350.0, 350.0}};
  params.trace_steps = 40;
  const RoutingScenario scenario(params, 17);
  RoutingTaskConfig task;
  task.population = 12;
  task.steps = 30;
  task.measure_from = 10;
  task.faults.watchdog_ttl = 1000;  // heartbeats on, nobody lost
  const snapshot::ExperimentIdentity identity{"routing", 1, 5, 50, 30};
  const auto run = [&](snapshot::ExperimentCheckpointer& checkpointer) {
    RoutingTaskConfig config = task;
    snapshot::RunCheckpointPort port = checkpointer.port(0);
    config.checkpoint = &port;
    return run_routing_task(scenario, config, Rng(5));
  };
  const std::string path = ::testing::TempDir() + "/slots_routing.snap";
  {
    snapshot::ExperimentCheckpointer saver(identity, path, 20, "");
    run(saver);
  }
  const snapshot::Checkpoint saved = snapshot::load_checkpoint(path);
  ASSERT_EQ(saved.runs.at(0).step, 20u);
  // The slot list [0, 12) and the next id 12, found in the payload.
  snapshot::ByteWriter pattern;
  std::vector<std::size_t> identity_slots(12);
  for (std::size_t i = 0; i < 12; ++i) identity_slots[i] = i;
  pattern.pod_vec(identity_slots);
  pattern.scalar(12);
  const std::vector<std::uint8_t>& payload = saved.runs.at(0).payload;
  const auto found = std::search(payload.begin(), payload.end(),
                                 pattern.bytes().begin(),
                                 pattern.bytes().end());
  ASSERT_NE(found, payload.end());
  const auto at = static_cast<std::size_t>(found - payload.begin());

  for (const auto& [bad, what] :
       {std::pair<std::uint8_t, std::string>{12, "outside a roster of 12"},
        std::pair<std::uint8_t, std::string>{0, "held twice"}}) {
    snapshot::Checkpoint tampered = saved;
    tampered.runs.at(0).payload[at + 8 + 8 * 1] = bad;  // agent 1's slot
    const std::string bad_path =
        ::testing::TempDir() + "/slots_routing_bad.snap";
    snapshot::save_checkpoint(tampered, bad_path);
    snapshot::ExperimentCheckpointer resumer(identity, "", 20, bad_path);
    try {
      run(resumer);
      FAIL() << "tampered checkpoint resumed; expected: " << what;
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
  }
}

TEST(TaskLoopTest, InertPlanForksOnlyWhenAlwaysAsked) {
  RunContext context;
  for (const FaultFork fork : {FaultFork::kWhenLive, FaultFork::kAlways}) {
    TaskLoop loop(context);
    Rng rng(9);
    loop.fork_faults(rng, fork);
    EXPECT_EQ(loop.injector() != nullptr, fork == FaultFork::kAlways);
    // The fork advances the run RNG only when it happens.
    Rng untouched(9);
    EXPECT_EQ(rng.uniform01() == untouched.uniform01(),
              fork == FaultFork::kWhenLive);
    snapshot::ByteWriter w;
    loop.save_faults(w);
    // kWhenLive writes only its presence flag, kAlways the injector.
    if (fork == FaultFork::kWhenLive)
      EXPECT_EQ(w.bytes(), (std::vector<std::uint8_t>{0}));
    else
      EXPECT_GT(w.bytes().size(), 1u);
  }
}

TEST(TaskLoopTest, PlanLossFillsInOnlyForTasksWithoutTheirOwn) {
  RunContext context;
  context.faults.agent_loss_probability = 0.25;
  const TaskLoop loop(context);
  EXPECT_EQ(loop.agent_loss(0.0), 0.25);
  EXPECT_EQ(loop.agent_loss(0.1), 0.1);
}

// The mapping task runs steps 0..max_steps; the largest budget means "until
// the team finishes" and must not wrap to an empty loop.
TEST(TaskLoopTest, UnboundedMappingBudgetRunsToTheFinish) {
  TargetEdgeParams params;
  params.geometry.node_count = 30;
  params.target_edges = 150;
  params.tolerance = 0.1;
  const GeneratedNetwork network = generate_target_edge_network(params, 3);
  MappingTaskConfig task;
  task.population = 4;
  task.agent = {MappingPolicy::kConscientious, StigmergyMode::kOff};
  task.max_steps = std::numeric_limits<std::size_t>::max();
  World world = World::frozen(network);
  const MappingTaskResult result = run_mapping_task(world, task, Rng(1));
  EXPECT_TRUE(result.finished);
  EXPECT_GT(result.finishing_time, 0u);
}

TEST(TaskLoopTest, InvalidPlanRejectedAtConstruction) {
  RunContext context;
  context.faults.agent_loss_probability = 1.5;
  EXPECT_THROW(TaskLoop{context}, ConfigError);
}

}  // namespace
}  // namespace agentnet
