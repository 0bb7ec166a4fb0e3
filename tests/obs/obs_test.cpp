// Telemetry subsystem tests: the determinism contract (counters and event
// streams bit-identical at every thread count), the JSONL round-trip, and
// the scope/merge plumbing.
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "energy/battery.hpp"
#include "experiments/mapping_experiments.hpp"
#include "experiments/routing_experiments.hpp"
#include "obs/obs.hpp"

namespace agentnet {
namespace {

GeneratedNetwork tiny_network() {
  TargetEdgeParams params;
  params.geometry.node_count = 50;
  params.target_edges = 260;
  params.tolerance = 0.05;
  return generate_target_edge_network(params, 3);
}

RoutingScenario tiny_scenario() {
  RoutingScenarioParams params;
  params.node_count = 50;
  params.gateway_count = 4;
  params.bounds = {{0.0, 0.0}, {350.0, 350.0}};
  params.trace_steps = 60;
  return RoutingScenario(params, 17);
}

RoutingTaskConfig tiny_routing_task() {
  RoutingTaskConfig task;
  task.population = 12;
  task.steps = 50;
  task.measure_from = 25;
  return task;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  EXPECT_TRUE(is.is_open()) << path;
  std::ostringstream out;
  out << is.rdbuf();
  return out.str();
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(ObsScopeTest, CountsLandInTheInstalledSlotAndNestingRestores) {
  obs::RunObs outer, inner;
  {
    obs::ObsRunScope outer_scope(outer);
    obs::count(obs::Counter::kAgentHops);
    {
      obs::ObsRunScope inner_scope(inner);
      obs::count(obs::Counter::kAgentHops, 5);
    }
    obs::count(obs::Counter::kAgentHops);
  }
  EXPECT_EQ(outer.counters.value(obs::Counter::kAgentHops), 2u);
  EXPECT_EQ(inner.counters.value(obs::Counter::kAgentHops), 5u);
}

TEST(ObsScopeTest, MergeAddsCountersAndPhases) {
  obs::RunObs a, b;
  a.counters.add(obs::Counter::kAgentHops, 3);
  a.phases.add(obs::Phase::kStep, 100, 2);
  b.counters.add(obs::Counter::kAgentHops, 4);
  b.counters.add(obs::Counter::kLinkFlaps, 1);
  b.phases.add(obs::Phase::kStep, 50, 1);
  obs::merge_into(a, b);
  EXPECT_EQ(a.counters.value(obs::Counter::kAgentHops), 7u);
  EXPECT_EQ(a.counters.value(obs::Counter::kLinkFlaps), 1u);
  EXPECT_EQ(a.phases.ns(obs::Phase::kStep), 150u);
  EXPECT_EQ(a.phases.calls(obs::Phase::kStep), 3u);
}

TEST(ObsScopeTest, TraceEventsIgnoredWhenDisabled) {
  obs::RunObs slot;
  obs::ObsRunScope scope(slot);
  obs::emit(obs::TraceEventKind::kMove, 3, 1, 0, 2);
  EXPECT_TRUE(slot.trace.events().empty());
  slot.trace.enable();
  obs::emit(obs::TraceEventKind::kMove, 3, 1, 0, 2);
  ASSERT_EQ(slot.trace.events().size(), 1u);
  EXPECT_EQ(slot.trace.events()[0].step, 3u);
}

TEST(ObsPhaseTest, GeometricWorldConstructionChargesOneTopoBuild) {
  EXPECT_STREQ(obs::phase_name(obs::Phase::kTopoBuild), "topo_build");
  const RoutingScenario scenario = tiny_scenario();
  obs::RunObs slot;
  obs::ObsRunScope scope(slot);
  const World world = scenario.make_world();
  EXPECT_EQ(slot.phases.calls(obs::Phase::kTopoBuild), 1u);
  // Only the cold build is charged; per-step upkeep is world_advance.
  EXPECT_EQ(slot.phases.calls(obs::Phase::kWorldAdvance), 0u);
}

TEST(ObsMetricsTest, BatteryDepletionCountsOnce) {
  obs::RunObs slot;
  obs::ObsRunScope scope(slot);
  BatteryParams params;
  params.capacity = 1.0;
  params.drain_per_step = 0.4;
  BatteryBank bank(2, {true, false}, params);
  for (int i = 0; i < 10; ++i) bank.step();
  // Node 0 dies exactly once (at step 3); node 1 is mains powered.
  EXPECT_EQ(slot.counters.value(obs::Counter::kBatteryDeaths), 1u);
  ASSERT_EQ(slot.trace.events().size(), 0u);  // tracing off by default
}

// Counters must obey the same contract as result tables: totals are
// bit-identical at every AGENTNET_THREADS setting because each run counts
// into its own slot and slots merge in run-index order.
TEST(ObsDeterminismTest, MappingCountersIdenticalAcrossThreadCounts) {
  const auto net = tiny_network();
  MappingTaskConfig task;
  task.population = 4;
  task.agent = {MappingPolicy::kConscientious, StigmergyMode::kFilterFirst};

  obs::RunObs serial;
  ObsConfig config;
  config.sink = &serial;
  run_mapping_experiment(net, task, 9, 42, /*threads=*/1, config);
  const auto reference = obs::snapshot(serial.counters);
  EXPECT_GT(reference.value(obs::Counter::kAgentHops), 0u);
  EXPECT_GT(reference.value(obs::Counter::kAgentMeetings), 0u);
  EXPECT_GT(reference.value(obs::Counter::kKnowledgeMerges), 0u);
  EXPECT_GT(reference.value(obs::Counter::kStigmergyStamps), 0u);

  for (int threads : {2, 7}) {
    SCOPED_TRACE(threads);
    obs::RunObs sink;
    ObsConfig parallel;
    parallel.sink = &sink;
    run_mapping_experiment(net, task, 9, 42, threads, parallel);
    EXPECT_EQ(obs::snapshot(sink.counters), reference);
  }
}

TEST(ObsDeterminismTest, RoutingCountersIdenticalAcrossThreadCounts) {
  const auto scenario = tiny_scenario();
  RoutingTaskConfig task = tiny_routing_task();
  task.faults.agent_loss_probability = 0.05;
  task.faults.gateway_respawn_probability = 0.5;

  obs::RunObs serial;
  ObsConfig config;
  config.sink = &serial;
  run_routing_experiment(scenario, task, 5, 70, /*threads=*/1, config);
  const auto reference = obs::snapshot(serial.counters);
  EXPECT_GT(reference.value(obs::Counter::kAgentHops), 0u);
  EXPECT_GT(reference.value(obs::Counter::kRouteTableUpdates), 0u);
  EXPECT_GT(reference.value(obs::Counter::kAgentsLost), 0u);
  EXPECT_GT(reference.value(obs::Counter::kAgentsRespawned), 0u);

  for (int threads : {2, 7}) {
    SCOPED_TRACE(threads);
    obs::RunObs sink;
    ObsConfig parallel;
    parallel.sink = &sink;
    run_routing_experiment(scenario, task, 5, 70, threads, parallel);
    EXPECT_EQ(obs::snapshot(sink.counters), reference);
  }
}

TEST(ObsDeterminismTest, PhaseTimersFireForEveryStage) {
  const auto scenario = tiny_scenario();
  obs::RunObs sink;
  ObsConfig config;
  config.sink = &sink;
  run_routing_experiment(scenario, tiny_routing_task(), 2, 7, 1, config);
  const auto phases = obs::snapshot(sink.phases);
  for (obs::Phase phase :
       {obs::Phase::kSetup, obs::Phase::kSense, obs::Phase::kDecide,
        obs::Phase::kMove, obs::Phase::kMeasure, obs::Phase::kWorldAdvance,
        obs::Phase::kStep, obs::Phase::kMerge, obs::Phase::kSummarize}) {
    SCOPED_TRACE(obs::phase_name(phase));
    EXPECT_GT(phases.at(phase).calls, 0u);
  }
}

// The tracer's own contract: event streams carry only simulation
// quantities, so a traced experiment produces byte-identical files no
// matter how its replications were scheduled.
TEST(ObsTraceTest, TraceFilesByteIdenticalAcrossThreadCounts) {
  const auto scenario = tiny_scenario();
  const RoutingTaskConfig task = tiny_routing_task();

  const std::string serial_path = temp_path("obs_trace_serial.jsonl");
  ObsConfig serial;
  serial.trace_path = serial_path;
  obs::RunObs sink;
  serial.sink = &sink;
  run_routing_experiment(scenario, task, 5, 70, /*threads=*/1, serial);
  const std::string reference = read_file(serial_path);
  EXPECT_FALSE(reference.empty());

  const std::string parallel_path = temp_path("obs_trace_parallel.jsonl");
  ObsConfig parallel;
  parallel.trace_path = parallel_path;
  parallel.sink = &sink;
  run_routing_experiment(scenario, task, 5, 70, /*threads=*/7, parallel);
  EXPECT_EQ(read_file(parallel_path), reference);
}

TEST(ObsTraceTest, EveryLineOfARealTraceRoundTrips) {
  const auto net = tiny_network();
  MappingTaskConfig task;
  task.population = 4;
  task.agent = {MappingPolicy::kConscientious, StigmergyMode::kFilterFirst};

  const std::string path = temp_path("obs_trace_roundtrip.jsonl");
  ObsConfig config;
  config.trace_path = path;
  obs::RunObs sink;
  config.sink = &sink;
  run_mapping_experiment(net, task, 3, 42, 1, config);

  std::ifstream is(path);
  ASSERT_TRUE(is.is_open());
  std::string line;
  std::size_t lines = 0, groups = 0;
  while (std::getline(is, line)) {
    ++lines;
    std::string error;
    const auto record = obs::parse_trace_line(line, &error);
    ASSERT_TRUE(record.has_value()) << error << " in: " << line;
    EXPECT_EQ(obs::serialize_trace_line(record->run, record->event), line);
    if (record->event.kind == obs::TraceEventKind::kRunGroup) {
      ++groups;
      EXPECT_EQ(record->event.a, 3);  // runs in this group
    }
  }
  EXPECT_GT(lines, 3u);
  EXPECT_EQ(groups, 1u);
}

TEST(ObsTraceTest, SecondExperimentAppendsAnotherRunGroup) {
  const auto net = tiny_network();
  MappingTaskConfig task;
  task.population = 3;
  const std::string path = temp_path("obs_trace_append.jsonl");
  obs::RunObs sink;
  ObsConfig config;
  config.trace_path = path;
  config.sink = &sink;
  run_mapping_experiment(net, task, 2, 1, 1, config);
  run_mapping_experiment(net, task, 2, 1, 1, config);
  std::ifstream is(path);
  std::string line;
  std::size_t groups = 0;
  while (std::getline(is, line)) {
    const auto record = obs::parse_trace_line(line);
    ASSERT_TRUE(record.has_value());
    if (record->event.kind == obs::TraceEventKind::kRunGroup) ++groups;
  }
  EXPECT_EQ(groups, 2u);
}

TEST(ObsTraceTest, ChromeFormatEmitsValidInstantEvents) {
  obs::TraceEvent event;
  event.kind = obs::TraceEventKind::kMove;
  event.step = 12;
  event.agent = 3;
  event.a = 7;
  event.b = 9;
  const std::string line = obs::serialize_chrome_line(2, event);
  EXPECT_NE(line.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(line.find("\"ts\":12"), std::string::npos);
  EXPECT_NE(line.find("\"pid\":2"), std::string::npos);
  EXPECT_NE(line.find("\"tid\":3"), std::string::npos);
  EXPECT_NE(line.find("\"from\":7"), std::string::npos);
  EXPECT_NE(line.find("\"to\":9"), std::string::npos);
}

TEST(ObsTraceTest, ParserRejectsMalformedLines) {
  for (const char* bad : {
           "",                                   // not an object
           "{\"step\":3}",                       // missing ev
           "{\"ev\":\"warp\",\"step\":3}",       // unknown kind
           "{\"ev\":\"move\",\"bogus\":1}",      // unknown field
           "{\"ev\":\"move\",\"step\":}",        // missing value
           "{\"ev\":\"move\",\"step\":3} tail",  // trailing garbage
       }) {
    SCOPED_TRACE(bad);
    std::string error;
    EXPECT_FALSE(obs::parse_trace_line(bad, &error).has_value());
    EXPECT_FALSE(error.empty());
  }
}

TEST(ObsConfigTest, FromEnvReadsTracePathAndFormat) {
  ASSERT_EQ(setenv("AGENTNET_TRACE", "/tmp/t.jsonl", 1), 0);
  ASSERT_EQ(setenv("AGENTNET_TRACE_FORMAT", "chrome", 1), 0);
  const ObsConfig config = ObsConfig::from_env();
  ASSERT_TRUE(config.trace_path.has_value());
  EXPECT_EQ(*config.trace_path, "/tmp/t.jsonl");
  EXPECT_EQ(config.trace_format, obs::TraceFormat::kChrome);

  ASSERT_EQ(setenv("AGENTNET_TRACE_FORMAT", "xml", 1), 0);
  EXPECT_THROW(ObsConfig::from_env(), ConfigError);
  unsetenv("AGENTNET_TRACE");
  unsetenv("AGENTNET_TRACE_FORMAT");
  EXPECT_FALSE(ObsConfig::from_env().trace_path.has_value());
}

TEST(ObsNamesTest, EveryCounterAndPhaseHasAStableName) {
  for (std::size_t i = 0; i < obs::kCounterCount; ++i)
    EXPECT_STRNE(obs::counter_name(static_cast<obs::Counter>(i)), "?");
  for (std::size_t i = 0; i < obs::kPhaseCount; ++i)
    EXPECT_STRNE(obs::phase_name(static_cast<obs::Phase>(i)), "?");
  for (std::size_t i = 0;
       i < static_cast<std::size_t>(obs::TraceEventKind::kCount); ++i)
    EXPECT_STRNE(obs::trace_event_name(static_cast<obs::TraceEventKind>(i)),
                 "?");
}

}  // namespace
}  // namespace agentnet
