#include "io/scenario_io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace agentnet {
namespace {

RoutingScenarioParams small_params() {
  RoutingScenarioParams p;
  p.node_count = 40;
  p.gateway_count = 4;
  p.bounds = {{0.0, 0.0}, {300.0, 300.0}};
  p.trace_steps = 50;
  return p;
}

TEST(ScenarioIoTest, RoundTripPreservesStructure) {
  const RoutingScenario original(small_params(), 5);
  std::stringstream buffer;
  save_scenario(original, buffer);
  const RoutingScenario loaded = load_scenario(buffer);
  EXPECT_EQ(loaded.node_count(), original.node_count());
  EXPECT_EQ(loaded.is_gateway(), original.is_gateway());
  EXPECT_EQ(loaded.mobile(), original.mobile());
  EXPECT_EQ(loaded.initial_positions(), original.initial_positions());
  EXPECT_EQ(loaded.base_ranges(), original.base_ranges());
  EXPECT_EQ(loaded.trace().frames(), original.trace().frames());
}

TEST(ScenarioIoTest, LoadedWorldReplaysIdentically) {
  const RoutingScenario original(small_params(), 6);
  std::stringstream buffer;
  save_scenario(original, buffer);
  const RoutingScenario loaded = load_scenario(buffer);
  World a = original.make_world();
  World b = loaded.make_world();
  EXPECT_EQ(a.graph(), b.graph());
  for (int t = 0; t < 50; ++t) {
    a.advance();
    b.advance();
    ASSERT_EQ(a.positions(), b.positions()) << "step " << t;
    ASSERT_EQ(a.graph(), b.graph()) << "step " << t;
  }
}

TEST(ScenarioIoTest, LoadedTaskResultsMatch) {
  const RoutingScenario original(small_params(), 7);
  std::stringstream buffer;
  save_scenario(original, buffer);
  const RoutingScenario loaded = load_scenario(buffer);
  RoutingTaskConfig task;
  task.population = 15;
  task.steps = 50;
  task.measure_from = 25;
  const auto a = run_routing_task(original, task, Rng(9));
  const auto b = run_routing_task(loaded, task, Rng(9));
  EXPECT_EQ(a.connectivity, b.connectivity);
}

TEST(ScenarioIoTest, PlacementSurvivesRoundTrip) {
  auto params = small_params();
  params.gateway_placement = GatewayPlacement::kSpread;
  const RoutingScenario original(params, 8);
  std::stringstream buffer;
  save_scenario(original, buffer);
  const RoutingScenario loaded = load_scenario(buffer);
  EXPECT_EQ(loaded.params().gateway_placement, GatewayPlacement::kSpread);
  EXPECT_EQ(loaded.is_gateway(), original.is_gateway());
}

TEST(ScenarioIoTest, RejectsBadMagic) {
  std::stringstream bad("not-a-scenario 1\n");
  EXPECT_THROW(load_scenario(bad), ConfigError);
}

TEST(ScenarioIoTest, RejectsTruncated) {
  const RoutingScenario original(small_params(), 9);
  std::stringstream buffer;
  save_scenario(original, buffer);
  const std::string text = buffer.str();
  std::stringstream truncated(text.substr(0, text.size() * 2 / 3));
  EXPECT_THROW(load_scenario(truncated), ConfigError);
}

TEST(ScenarioIoTest, RejectsSectionOutOfOrder) {
  std::stringstream bad(
      "agentnet-scenario 1\n"
      "bounds 0 0 1 1\n");  // params section missing
  EXPECT_THROW(load_scenario(bad), ConfigError);
}

TEST(ScenarioIoTest, SaveLoadSaveIsByteIdentical) {
  const RoutingScenario original(small_params(), 14);
  std::stringstream first;
  save_scenario(original, first);
  std::stringstream in(first.str());
  const RoutingScenario loaded = load_scenario(in);
  std::stringstream second;
  save_scenario(loaded, second);
  EXPECT_EQ(second.str(), first.str());
  EXPECT_EQ(loaded.trace().movers().size(), 20u);  // half of 40 move
}

/// A valid saved scenario with 3 nodes and 2 frames, one section per line
/// (line numbers are 1-based, as in the messages).
std::vector<std::string> tiny_lines() {
  return {
      "agentnet-scenario 1",             // 1
      "params 3 1 random 0.34",          // 2
      "bounds 0 0 100 100",              // 3
      "radio 50 0 1.5 0.6",              // 4
      "battery 1 0.001",                 // 5
      "movement 0.5 3 0.05",             // 6
      "policy symmetric-and",            // 7
      "nodes 3",                         // 8
      "10 10 50 g -",                    // 9
      "20 20 50 - m",                    // 10
      "30 30 50 - -",                    // 11
      "frames 2",                        // 12
      "10 10 21 20 30 30",               // 13
      "10 10 22 20 30 30",               // 14
  };
}

std::string join(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  return text;
}

/// The ConfigError message load_scenario raises for `lines`.
std::string rejection(const std::vector<std::string>& lines) {
  std::stringstream in(join(lines));
  try {
    load_scenario(in);
  } catch (const ConfigError& e) {
    return e.what();
  }
  return "accepted";
}

TEST(ScenarioIoTest, TinyScenarioLoadsAndRoundTrips) {
  std::stringstream in(join(tiny_lines()));
  const RoutingScenario loaded = load_scenario(in);
  EXPECT_EQ(loaded.trace().frames(), 2u);
  EXPECT_EQ(loaded.trace().frame(1)[1], (Vec2{22.0, 20.0}));
  std::stringstream out;
  save_scenario(loaded, out);
  std::stringstream again(out.str());
  std::stringstream resaved;
  save_scenario(load_scenario(again), resaved);
  EXPECT_EQ(resaved.str(), out.str());
}

TEST(ScenarioIoTest, RejectionsNameTheirLine) {
  const auto expect_rejection = [](std::vector<std::string> lines,
                                   const std::string& expected) {
    const std::string message = rejection(lines);
    EXPECT_NE(message.find(expected), std::string::npos)
        << "expected \"" << expected << "\" in \"" << message << "\"";
  };
  auto lines = tiny_lines();
  lines[9] = "20 20 50 - x";
  expect_rejection(lines, "scenario line 10: bad node line");
  lines = tiny_lines();
  lines[12] = "10 10 21 20 30";
  expect_rejection(lines, "scenario line 13: bad frame line");
  lines = tiny_lines();
  lines[13] += " 7";
  expect_rejection(lines, "scenario line 14: trailing tokens on frame line");
  lines = tiny_lines();
  lines[12] = "10 10 21 20 30.5 30";
  expect_rejection(lines,
                   "scenario line 13: frame moves node 2, which is not "
                   "flagged 'm'");
  lines = tiny_lines();
  lines[13] = "10.5 10 22 20 30 30";  // the gateway
  expect_rejection(lines, "scenario line 14: frame moves node 0");
  lines = tiny_lines();
  lines[3] = "bounds 0 0 100 100";
  expect_rejection(lines, "scenario line 4: expected section 'radio'");
  lines = tiny_lines();
  lines[7] = "nodes 4";
  expect_rejection(lines, "scenario line 8: nodes section disagrees");
  lines = tiny_lines();
  lines[6] = "policy sideways";
  expect_rejection(lines, "scenario line 7: unknown link policy");
  lines = tiny_lines();
  lines[1] = "params 3 1 middle 0.34";
  expect_rejection(lines, "scenario line 2: unknown gateway placement");
  // Comments and blank lines count toward the line number.
  lines = tiny_lines();
  lines.insert(lines.begin() + 8, "# node table");
  lines.insert(lines.begin() + 9, "");
  lines[11] = "20 20 50 - x";
  expect_rejection(lines, "scenario line 12: bad node line");
  // Missing frames: the line after the last one.
  lines = tiny_lines();
  lines.pop_back();
  expect_rejection(lines, "scenario line 14: unexpected end of file");
}

TEST(ScenarioIoTest, HugeFrameCountIsAConfigError) {
  auto lines = tiny_lines();
  lines[11] = "frames 99999999999";
  EXPECT_NE(rejection(lines).find("scenario line 15: unexpected end of file"),
            std::string::npos);
  lines = tiny_lines();
  lines[1] = "params 99999999999 1 random 0.34";
  lines[7] = "nodes 99999999999";
  EXPECT_NE(rejection(lines).find("scenario line 12: bad node line"),
            std::string::npos);
}

TEST(ScenarioIoTest, FileRoundTrip) {
  const RoutingScenario original(small_params(), 10);
  const std::string path = ::testing::TempDir() + "/agentnet_scenario.txt";
  save_scenario_file(original, path);
  const RoutingScenario loaded = load_scenario_file(path);
  EXPECT_EQ(loaded.is_gateway(), original.is_gateway());
}

TEST(GatewayPlacementTest, SpreadCoversArenaBetterThanRandom) {
  auto params = small_params();
  params.node_count = 200;
  params.gateway_count = 9;
  auto coverage_radius = [&](GatewayPlacement placement) {
    params.gateway_placement = placement;
    const RoutingScenario s(params, 11);
    // Max over nodes of the distance to the nearest gateway.
    double worst = 0.0;
    for (std::size_t i = 0; i < s.node_count(); ++i) {
      double best = 1e18;
      for (std::size_t g = 0; g < s.node_count(); ++g)
        if (s.is_gateway()[g])
          best = std::min(best, distance(s.initial_positions()[i],
                                         s.initial_positions()[g]));
      worst = std::max(worst, best);
    }
    return worst;
  };
  EXPECT_LT(coverage_radius(GatewayPlacement::kSpread),
            coverage_radius(GatewayPlacement::kRandom));
}

TEST(GatewayPlacementTest, PerimeterGatewaysHugTheBoundary) {
  auto params = small_params();
  params.node_count = 200;
  params.gateway_count = 8;
  params.gateway_placement = GatewayPlacement::kPerimeter;
  const RoutingScenario s(params, 12);
  const Vec2 centre = (params.bounds.lo + params.bounds.hi) * 0.5;
  const double half = params.bounds.width() * 0.5;
  for (std::size_t g = 0; g < s.node_count(); ++g) {
    if (!s.is_gateway()[g]) continue;
    const Vec2 p = s.initial_positions()[g];
    const double edge_distance =
        std::min(std::min(p.x - params.bounds.lo.x,
                          params.bounds.hi.x - p.x),
                 std::min(p.y - params.bounds.lo.y,
                          params.bounds.hi.y - p.y));
    EXPECT_LT(edge_distance, half * 0.8)
        << "perimeter gateway sits suspiciously close to the centre";
    (void)centre;
  }
}

TEST(GatewayPlacementTest, AllStrategiesProduceExactCount) {
  auto params = small_params();
  for (auto placement :
       {GatewayPlacement::kRandom, GatewayPlacement::kSpread,
        GatewayPlacement::kPerimeter}) {
    params.gateway_placement = placement;
    const RoutingScenario s(params, 13);
    std::size_t count = 0;
    for (bool g : s.is_gateway())
      if (g) ++count;
    EXPECT_EQ(count, params.gateway_count) << to_string(placement);
  }
}

TEST(GatewayPlacementTest, ToStringNames) {
  EXPECT_STREQ(to_string(GatewayPlacement::kRandom), "random");
  EXPECT_STREQ(to_string(GatewayPlacement::kSpread), "spread");
  EXPECT_STREQ(to_string(GatewayPlacement::kPerimeter), "perimeter");
}

}  // namespace
}  // namespace agentnet
