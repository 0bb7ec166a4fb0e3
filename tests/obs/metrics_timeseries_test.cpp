// Time-series telemetry tests: the determinism contract (metrics JSONL
// byte-identical at every thread count), windowed-histogram merge-order
// independence, decimation, the strict line parser round-trip, and the run
// manifest round-trip.
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "experiments/routing_experiments.hpp"
#include "experiments/traffic_experiments.hpp"
#include "obs/obs.hpp"
#include "traffic/flow_traffic.hpp"

namespace agentnet {
namespace {

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

RoutingScenario tiny_scenario() {
  RoutingScenarioParams params;
  params.node_count = 50;
  params.gateway_count = 4;
  params.bounds = {{0.0, 0.0}, {350.0, 350.0}};
  params.trace_steps = 60;
  return RoutingScenario(params, 17);
}

RoutingTaskConfig faulty_routing_task() {
  RoutingTaskConfig task;
  task.population = 12;
  task.steps = 50;
  task.measure_from = 25;
  task.faults.node_crash_probability = 0.05;
  task.faults.crash_persistence = 5;
  return task;
}

TEST(GaugeRegistryTest, NamesAreStable) {
  EXPECT_STREQ(obs::gauge_name(obs::Gauge::kLiveFraction), "live_fraction");
  EXPECT_STREQ(obs::gauge_name(obs::Gauge::kBatteryAlive), "battery_alive");
  EXPECT_STREQ(obs::gauge_name(obs::Gauge::kConnectivity), "connectivity");
  EXPECT_STREQ(obs::gauge_name(obs::Gauge::kOracleConnectivity),
               "oracle_connectivity");
  EXPECT_STREQ(obs::gauge_name(obs::Gauge::kKnowledge), "knowledge");
  EXPECT_STREQ(obs::gauge_name(obs::Gauge::kQueueDepth), "queue_depth");
  EXPECT_STREQ(obs::gauge_name(obs::Gauge::kPheromoneEntropy),
               "pheromone_entropy");
}

TEST(HistogramQuantileTest, RankStatisticAndMergeOrderIndependence) {
  // histogram[v] = count of samples with value v.
  const std::vector<std::uint64_t> a{0, 3, 0, 2, 0, 1};  // 3×1, 2×3, 1×5
  EXPECT_EQ(obs::histogram_quantile(a, 0.0), 1u);
  EXPECT_EQ(obs::histogram_quantile(a, 0.5), 1u);
  EXPECT_EQ(obs::histogram_quantile(a, 0.75), 3u);
  EXPECT_EQ(obs::histogram_quantile(a, 1.0), 5u);
  EXPECT_EQ(obs::histogram_quantile(std::vector<std::uint64_t>{}, 0.5), 0u);

  // Element-wise sums commute: any merge order of per-run histograms gives
  // the same quantiles.
  const std::vector<std::uint64_t> b{5, 0, 1, 0, 0, 0, 4};
  std::vector<std::uint64_t> ab(7, 0), ba(7, 0);
  for (std::size_t v = 0; v < 7; ++v) {
    const std::uint64_t from_a = v < a.size() ? a[v] : 0;
    ab[v] = from_a + b[v];
    ba[v] = b[v] + from_a;
  }
  for (const double q : {0.1, 0.5, 0.9, 0.95, 0.99})
    EXPECT_EQ(obs::histogram_quantile(ab, q), obs::histogram_quantile(ba, q));

  // And it is the exact statistic FlowTrafficStats reads off its own
  // full-run histogram.
  FlowTrafficStats stats;
  stats.latency_histogram = a;
  stats.delivered = 6;
  for (const double q : {0.0, 0.25, 0.5, 0.75, 0.95, 1.0})
    EXPECT_EQ(stats.latency_quantile(q), obs::histogram_quantile(a, q));
}

TEST(MetricsBufferTest, DecimatesAndAggregatesDeltasAcrossTheWindow) {
  obs::MetricsBuffer buffer;
  obs::CounterSlot counters;
  buffer.enable(7);
  EXPECT_TRUE(buffer.want(0));
  EXPECT_FALSE(buffer.want(1));
  EXPECT_TRUE(buffer.want(14));
  for (std::uint64_t t = 0; t < 15; ++t) {
    counters.add(obs::Counter::kAgentHops, 1);  // one hop per step
    if (buffer.want(t)) {
      buffer.gauge(t, obs::Gauge::kConnectivity,
                   static_cast<double>(t) / 10.0);
      buffer.tick(t, counters);
    }
  }
  ASSERT_EQ(buffer.rows().size(), 3u);
  EXPECT_EQ(buffer.rows()[0].step, 0u);
  EXPECT_EQ(buffer.rows()[1].step, 7u);
  EXPECT_EQ(buffer.rows()[2].step, 14u);
  const auto hops = static_cast<std::size_t>(obs::Counter::kAgentHops);
  // Window deltas cover every step since the previous tick, sampled or not.
  EXPECT_EQ(buffer.rows()[0].deltas[hops], 1u);
  EXPECT_EQ(buffer.rows()[1].deltas[hops], 7u);
  EXPECT_EQ(buffer.rows()[2].deltas[hops], 7u);
  const auto conn = static_cast<std::size_t>(obs::Gauge::kConnectivity);
  EXPECT_TRUE(buffer.rows()[1].has_gauge[conn]);
  EXPECT_DOUBLE_EQ(buffer.rows()[1].gauges[conn], 0.7);

  // Unsampled / disabled buffers ignore everything.
  obs::MetricsBuffer off;
  off.gauge(0, obs::Gauge::kConnectivity, 1.0);
  off.tick(0, counters);
  EXPECT_TRUE(off.rows().empty());
}

TEST(MetricsBufferTest, LatencyWindowsDiffAndSurviveResets) {
  obs::MetricsBuffer buffer;
  buffer.enable(1);
  std::vector<std::uint64_t> histogram{0, 2, 0};  // 2 packets of latency 1
  buffer.sample_latency(0, histogram);
  histogram = {0, 2, 3};  // +3 packets of latency 2
  buffer.sample_latency(1, histogram);
  // reset_stats() shrank a bucket: the current histogram IS the window.
  histogram = {1, 0, 0};
  buffer.sample_latency(2, histogram);
  ASSERT_EQ(buffer.rows().size(), 3u);
  EXPECT_TRUE(buffer.rows()[0].has_latency);
  EXPECT_EQ(buffer.rows()[0].lat_count, 2u);
  EXPECT_EQ(buffer.rows()[0].lat_p50, 1u);
  EXPECT_EQ(buffer.rows()[1].lat_count, 3u);
  EXPECT_EQ(buffer.rows()[1].lat_p50, 2u);
  EXPECT_EQ(buffer.rows()[2].lat_count, 1u);
  EXPECT_EQ(buffer.rows()[2].lat_p50, 0u);
}

TEST(MetricsLineTest, RoundTripsExactly) {
  obs::MetricsRow row;
  row.step = 42;
  const auto conn = static_cast<std::size_t>(obs::Gauge::kConnectivity);
  row.has_gauge[conn] = true;
  row.gauges[conn] = 0.1 + 0.2;  // not exactly representable; bits must hold
  row.deltas[static_cast<std::size_t>(obs::Counter::kAgentHops)] = 17;
  row.has_latency = true;
  row.lat_count = 5;
  row.lat_p50 = 3;
  row.lat_p95 = 9;
  row.lat_p99 = 9;
  const std::string line = obs::serialize_metrics_line(2, row);
  const auto parsed = obs::parse_metrics_line(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->is_group);
  EXPECT_EQ(parsed->run, 2);
  EXPECT_EQ(parsed->row, row);
  EXPECT_EQ(obs::serialize_metrics_line(parsed->run, parsed->row), line);

  const std::string group = obs::serialize_metrics_group(4, 7);
  const auto parsed_group = obs::parse_metrics_line(group);
  ASSERT_TRUE(parsed_group.has_value());
  EXPECT_TRUE(parsed_group->is_group);
  EXPECT_EQ(parsed_group->runs, 4u);
  EXPECT_EQ(parsed_group->every, 7u);
}

TEST(MetricsLineTest, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(obs::parse_metrics_line("", &error).has_value());
  EXPECT_FALSE(obs::parse_metrics_line("{\"step\":1}", &error).has_value());
  EXPECT_FALSE(
      obs::parse_metrics_line("{\"run\":0,\"step\":1,\"bogus\":2}", &error)
          .has_value());
  EXPECT_FALSE(
      obs::parse_metrics_line("{\"run\":0,\"step\":oops}", &error)
          .has_value());
  EXPECT_FALSE(
      obs::parse_metrics_line("{\"run\":0,\"step\":1} trailing", &error)
          .has_value());
}

TEST(ManifestTest, RoundTripsThroughJsonAndDisk) {
  ::setenv("AGENTNET_FULL", "on", 1);
  obs::RunManifest manifest = obs::make_manifest(2010, 5, 3);
  ::unsetenv("AGENTNET_FULL");
  EXPECT_EQ(manifest.obs_level, AGENTNET_OBS_LEVEL);
  EXPECT_EQ(manifest.seed, 2010u);
  EXPECT_EQ(manifest.runs, 5);
  EXPECT_EQ(manifest.threads, 3);
  EXPECT_FALSE(manifest.library_version.empty());
  bool saw_knob = false;
  for (const auto& [name, value] : manifest.env)
    if (name == "AGENTNET_FULL") saw_knob = value == "on";
  EXPECT_TRUE(saw_knob);

  manifest.metrics_every = 7;
  manifest.trace_path = "a.trace.jsonl";
  manifest.metrics_path = "a.metrics.jsonl";
  const std::string json = obs::manifest_json(manifest);
  const auto parsed = obs::parse_manifest_json(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, manifest);

  const std::string path = temp_path("manifest_roundtrip.json");
  obs::write_manifest(path, manifest);
  const auto reread = obs::parse_manifest_json(read_file(path));
  ASSERT_TRUE(reread.has_value());
  EXPECT_EQ(*reread, manifest);

  std::string error;
  EXPECT_FALSE(obs::parse_manifest_json("{\"nope\":1}", &error).has_value());
  EXPECT_FALSE(obs::parse_manifest_json(json + "x", &error).has_value());
}

TEST(ManifestTest, ParserRejectsMalformedInput) {
  // Each corruption mode must fail with a diagnostic, never crash or
  // silently produce a half-filled manifest.
  const char* bad_inputs[] = {
      "",                                      // empty
      "not json at all",                       // no object
      "{",                                     // unterminated object
      "{\"seed\": }",                          // missing value
      "{\"seed\": 1 \"runs\": 2}",             // missing comma
      "{\"seed\": \"text\"}",                  // string where int expected
      "{\"build_type\": 3}",                   // int where string expected
      "{\"build_type\": \"rel",                // unterminated string
      "{\"build_type\": \"a\\q\"}",            // unknown escape
      "{\"env\": {\"A\": 1}}",                 // non-string env value
      "{\"env\": {\"A\"}}",                    // env entry without value
  };
  for (const char* input : bad_inputs) {
    std::string error;
    EXPECT_FALSE(obs::parse_manifest_json(input, &error).has_value())
        << "accepted: " << input;
    EXPECT_FALSE(error.empty()) << "no diagnostic for: " << input;
  }
}

TEST(ManifestTest, TruncatedOnDiskManifestFailsToParse) {
  obs::RunManifest manifest = obs::make_manifest(7, 2, 1);
  const std::string path = temp_path("manifest_truncated.json");
  obs::write_manifest(path, manifest);
  std::string text = read_file(path);
  ASSERT_GT(text.size(), 10u);
  std::string error;
  EXPECT_FALSE(
      obs::parse_manifest_json(text.substr(0, text.size() / 2), &error)
          .has_value());
  EXPECT_FALSE(error.empty());
}

TEST(ManifestTest, WriteManifestLeavesNoTempFile) {
  const std::string path = temp_path("manifest_atomic.json");
  obs::write_manifest(path, obs::make_manifest(1, 1, 1));
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.is_open()) << "temp file left behind after commit";
  EXPECT_TRUE(obs::parse_manifest_json(read_file(path)).has_value());
}

#if AGENTNET_OBS_LEVEL >= 1

TEST(MetricsDeterminismTest, StreamIsByteIdenticalAcrossThreadCounts) {
  const RoutingScenario scenario = tiny_scenario();
  const RoutingTaskConfig task = faulty_routing_task();
  // Distinct paths per thread count: write_metrics truncates a path once
  // per process and appends afterwards.
  std::vector<std::string> streams;
  for (const int threads : {1, 2, 7}) {
    obs::RunObs sink;
    obs::ObsConfig config;
    config.metrics_path =
        temp_path("metrics_t" + std::to_string(threads) + ".jsonl");
    config.sink = &sink;
    run_routing_experiment(scenario, task, 4, 99, threads, config);
    streams.push_back(read_file(*config.metrics_path));
  }
  ASSERT_FALSE(streams[0].empty());
  EXPECT_EQ(streams[0], streams[1]);
  EXPECT_EQ(streams[0], streams[2]);

  // The fault-injected stream carries the degradation inputs: per-step
  // connectivity and the injector's live-node fraction.
  std::istringstream is(streams[0]);
  std::string line;
  std::size_t rows = 0;
  bool saw_connectivity = false, saw_live = false, saw_battery = false;
  const auto conn = static_cast<std::size_t>(obs::Gauge::kConnectivity);
  const auto live = static_cast<std::size_t>(obs::Gauge::kLiveFraction);
  const auto battery = static_cast<std::size_t>(obs::Gauge::kBatteryAlive);
  while (std::getline(is, line)) {
    const auto record = obs::parse_metrics_line(line);
    ASSERT_TRUE(record.has_value()) << line;
    if (record->is_group) continue;
    ++rows;
    saw_connectivity = saw_connectivity || record->row.has_gauge[conn];
    saw_live = saw_live || record->row.has_gauge[live];
    saw_battery = saw_battery || record->row.has_gauge[battery];
  }
  EXPECT_EQ(rows, 4u * task.steps);  // every step sampled, 4 runs
  EXPECT_TRUE(saw_connectivity);
  EXPECT_TRUE(saw_live);
  EXPECT_TRUE(saw_battery);
}

TEST(MetricsDeterminismTest, DecimatedRowsMatchTheDenseStream) {
  const RoutingScenario scenario = tiny_scenario();
  const RoutingTaskConfig task = faulty_routing_task();
  std::vector<std::vector<obs::MetricsRecord>> by_every;
  for (const std::uint64_t every : {std::uint64_t{1}, std::uint64_t{7}}) {
    obs::RunObs sink;
    obs::ObsConfig config;
    config.metrics_path =
        temp_path("metrics_every" + std::to_string(every) + ".jsonl");
    config.metrics_every = every;
    config.sink = &sink;
    run_routing_experiment(scenario, task, 2, 99, 1, config);
    std::istringstream is(read_file(*config.metrics_path));
    std::string line;
    std::vector<obs::MetricsRecord> records;
    while (std::getline(is, line)) {
      const auto record = obs::parse_metrics_line(line);
      ASSERT_TRUE(record.has_value()) << line;
      records.push_back(*record);
    }
    by_every.push_back(std::move(records));
  }
  const auto& dense = by_every[0];
  const auto& sparse = by_every[1];
  ASSERT_EQ(dense.front().every, 1u);
  ASSERT_EQ(sparse.front().every, 7u);

  // Each decimated row repeats the dense gauge values of its step, and its
  // deltas aggregate the dense deltas over the window it closes.
  for (const obs::MetricsRecord& record : sparse) {
    if (record.is_group) continue;
    EXPECT_EQ(record.row.step % 7, 0u);
    std::array<std::uint64_t, obs::kCounterCount> window{};
    const obs::MetricsRecord* match = nullptr;
    for (const obs::MetricsRecord& d : dense) {
      if (d.is_group || d.run != record.run) continue;
      if (d.row.step > record.row.step) continue;
      if (d.row.step + 7 > record.row.step) {
        for (std::size_t i = 0; i < obs::kCounterCount; ++i)
          window[i] += d.row.deltas[i];
      }
      if (d.row.step == record.row.step) match = &d;
    }
    ASSERT_NE(match, nullptr);
    EXPECT_EQ(record.row.gauges, match->row.gauges);
    EXPECT_EQ(record.row.has_gauge, match->row.has_gauge);
    EXPECT_EQ(record.row.deltas, window);
  }
}

TEST(MetricsDeterminismTest, TrafficStreamCarriesQueueAndLatencyWindows) {
  const RoutingScenario scenario = tiny_scenario();
  TrafficTaskConfig task;
  task.steps = 60;
  task.measure_from = 20;
  task.workload.offered_load = 0.5;
  obs::RunObs sink;
  obs::ObsConfig config;
  config.metrics_path = temp_path("metrics_traffic.jsonl");
  config.sink = &sink;
  run_traffic_experiment(scenario, task, 2, 99, 1, config);
  std::istringstream is(read_file(*config.metrics_path));
  std::string line;
  bool saw_queue = false, saw_entropy = false, saw_latency = false;
  const auto queue = static_cast<std::size_t>(obs::Gauge::kQueueDepth);
  const auto entropy =
      static_cast<std::size_t>(obs::Gauge::kPheromoneEntropy);
  while (std::getline(is, line)) {
    const auto record = obs::parse_metrics_line(line);
    ASSERT_TRUE(record.has_value()) << line;
    if (record->is_group) continue;
    saw_queue = saw_queue || record->row.has_gauge[queue];
    saw_entropy = saw_entropy || record->row.has_gauge[entropy];
    saw_latency =
        saw_latency || (record->row.has_latency && record->row.lat_count > 0);
  }
  EXPECT_TRUE(saw_queue);
  EXPECT_TRUE(saw_entropy);
  EXPECT_TRUE(saw_latency);
}

TEST(MetricsDeterminismTest, HarnessWritesTheManifest) {
  const RoutingScenario scenario = tiny_scenario();
  const RoutingTaskConfig task = faulty_routing_task();
  obs::RunObs sink;
  obs::ObsConfig config;
  config.metrics_path = temp_path("metrics_manifested.jsonl");
  config.metrics_every = 5;
  config.manifest_path = temp_path("metrics_manifested.manifest.json");
  config.sink = &sink;
  run_routing_experiment(scenario, task, 3, 77, 2, config);
  const auto manifest = obs::parse_manifest_json(read_file(*config.manifest_path));
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(manifest->obs_level, AGENTNET_OBS_LEVEL);
  EXPECT_EQ(manifest->seed, 77u);
  EXPECT_EQ(manifest->runs, 3);
  EXPECT_EQ(manifest->threads, 2);
  EXPECT_EQ(manifest->metrics_every, 5u);
  EXPECT_EQ(manifest->metrics_path, *config.metrics_path);
  EXPECT_TRUE(manifest->trace_path.empty());
}

#endif  // AGENTNET_OBS_LEVEL >= 1

}  // namespace
}  // namespace agentnet
