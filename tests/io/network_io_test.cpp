#include "io/network_io.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace agentnet {
namespace {

GeneratedNetwork sample_network() {
  TargetEdgeParams params;
  params.geometry.node_count = 40;
  params.target_edges = 240;
  params.tolerance = 0.05;
  return generate_target_edge_network(params, 5);
}

TEST(NetworkIoTest, RoundTripPreservesEverything) {
  const auto net = sample_network();
  std::stringstream buffer;
  save_network(net, buffer);
  const auto loaded = load_network(buffer);
  EXPECT_EQ(loaded.graph, net.graph);
  EXPECT_EQ(loaded.positions, net.positions);
  EXPECT_EQ(loaded.base_ranges, net.base_ranges);
  EXPECT_EQ(loaded.policy, net.policy);
  EXPECT_EQ(loaded.bounds.lo, net.bounds.lo);
  EXPECT_EQ(loaded.bounds.hi, net.bounds.hi);
}

TEST(NetworkIoTest, RoundTripAllPolicies) {
  for (LinkPolicy policy : {LinkPolicy::kDirected, LinkPolicy::kSymmetricAnd,
                            LinkPolicy::kSymmetricOr}) {
    GeneratedNetwork net;
    net.bounds = {{0.0, 0.0}, {10.0, 10.0}};
    net.policy = policy;
    net.positions = {{1.0, 1.0}, {2.0, 2.0}};
    net.base_ranges = {3.0, 4.0};
    net.graph = Graph(2);
    net.graph.add_edge(0, 1);
    std::stringstream buffer;
    save_network(net, buffer);
    EXPECT_EQ(load_network(buffer).policy, policy);
  }
}

TEST(NetworkIoTest, CommentsAndBlankLinesIgnored) {
  const auto net = sample_network();
  std::stringstream buffer;
  save_network(net, buffer);
  std::string text = "# produced by test\n\n" + buffer.str();
  std::stringstream annotated(text);
  EXPECT_EQ(load_network(annotated).graph, net.graph);
}

TEST(NetworkIoTest, RejectsBadMagic) {
  std::stringstream bad("something-else 1\n");
  EXPECT_THROW(load_network(bad), ConfigError);
}

TEST(NetworkIoTest, RejectsWrongVersion) {
  std::stringstream bad("agentnet-network 9\n");
  EXPECT_THROW(load_network(bad), ConfigError);
}

TEST(NetworkIoTest, RejectsTruncatedFile) {
  const auto net = sample_network();
  std::stringstream buffer;
  save_network(net, buffer);
  std::string text = buffer.str();
  std::stringstream truncated(text.substr(0, text.size() / 2));
  EXPECT_THROW(load_network(truncated), ConfigError);
}

TEST(NetworkIoTest, RejectsEdgeOutOfRange) {
  std::stringstream bad(
      "agentnet-network 1\n"
      "bounds 0 0 10 10\n"
      "policy directed\n"
      "nodes 2\n"
      "1 1 5\n"
      "2 2 5\n"
      "edges 1\n"
      "0 7\n");
  EXPECT_THROW(load_network(bad), ConfigError);
}

TEST(NetworkIoTest, RejectsDuplicateEdge) {
  std::stringstream bad(
      "agentnet-network 1\n"
      "bounds 0 0 10 10\n"
      "policy directed\n"
      "nodes 2\n"
      "1 1 5\n"
      "2 2 5\n"
      "edges 2\n"
      "0 1\n"
      "0 1\n");
  EXPECT_THROW(load_network(bad), ConfigError);
}

TEST(NetworkIoTest, RejectsNonPositiveRange) {
  std::stringstream bad(
      "agentnet-network 1\n"
      "bounds 0 0 10 10\n"
      "policy directed\n"
      "nodes 1\n"
      "1 1 0\n"
      "edges 0\n");
  EXPECT_THROW(load_network(bad), ConfigError);
}

TEST(NetworkIoTest, RejectsGiantNodeCount) {
  // A corrupted count line must be rejected before any allocation happens.
  std::stringstream bad(
      "agentnet-network 1\n"
      "bounds 0 0 10 10\n"
      "policy directed\n"
      "nodes 999999999999\n");
  try {
    load_network(bad);
    FAIL() << "giant node count accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("implausible node count"),
              std::string::npos)
        << e.what();
  }
}

TEST(NetworkIoTest, RejectsGiantEdgeCount) {
  std::stringstream bad(
      "agentnet-network 1\n"
      "bounds 0 0 10 10\n"
      "policy directed\n"
      "nodes 2\n"
      "1 1 5\n"
      "2 2 5\n"
      "edges 888888888888\n");
  try {
    load_network(bad);
    FAIL() << "giant edge count accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("implausible edge count"),
              std::string::npos)
        << e.what();
  }
}

TEST(NetworkIoTest, ErrorsNameTheOffendingLine) {
  // Bad node record on (1-based) line 6: the message must say so.
  std::stringstream bad(
      "agentnet-network 1\n"
      "bounds 0 0 10 10\n"
      "policy directed\n"
      "nodes 2\n"
      "1 1 5\n"
      "2 2 not-a-number\n");
  try {
    load_network(bad);
    FAIL() << "malformed node record accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("line 6"), std::string::npos)
        << e.what();
  }
}

TEST(NetworkIoTest, TruncationNamesLastLineAndExpectedSection) {
  // Stream ends after the second of three promised node records.
  std::stringstream truncated(
      "agentnet-network 1\n"
      "bounds 0 0 10 10\n"
      "policy directed\n"
      "nodes 3\n"
      "1 1 5\n"
      "2 2 5\n");
  try {
    load_network(truncated);
    FAIL() << "truncated file accepted";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("truncated after line 6"), std::string::npos) << what;
    EXPECT_NE(what.find("node record"), std::string::npos) << what;
  }
}

TEST(NetworkIoTest, OutOfRangeEdgeNamesTheLine) {
  std::stringstream bad(
      "agentnet-network 1\n"
      "bounds 0 0 10 10\n"
      "policy directed\n"
      "nodes 2\n"
      "1 1 5\n"
      "2 2 5\n"
      "edges 1\n"
      "0 7\n");
  try {
    load_network(bad);
    FAIL() << "out-of-range edge accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("line 8"), std::string::npos)
        << e.what();
  }
}

TEST(NetworkIoTest, SaveFileLeavesNoTempOnSuccess) {
  const auto net = sample_network();
  const std::string path = ::testing::TempDir() + "/agentnet_net_atomic.txt";
  save_network_file(net, path);
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.is_open()) << "temp file left behind after commit";
  EXPECT_EQ(load_network_file(path).graph, net.graph);
}

TEST(NetworkIoTest, FileRoundTrip) {
  const auto net = sample_network();
  const std::string path = ::testing::TempDir() + "/agentnet_net_test.txt";
  save_network_file(net, path);
  EXPECT_EQ(load_network_file(path).graph, net.graph);
}

TEST(NetworkIoTest, MissingFileThrows) {
  EXPECT_THROW(load_network_file("/nonexistent/definitely/missing.txt"),
               ConfigError);
}

TEST(DotTest, ContainsNodesAndEdges) {
  GeneratedNetwork net;
  net.bounds = {{0.0, 0.0}, {10.0, 10.0}};
  net.positions = {{1.0, 1.0}, {2.0, 2.0}, {3.0, 3.0}};
  net.base_ranges = {1.0, 1.0, 1.0};
  net.graph = Graph(3);
  net.graph.add_undirected_edge(0, 1);
  net.graph.add_edge(0, 2);  // one-way
  const std::string dot = to_dot(net);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1 [dir=none];"), std::string::npos);
  EXPECT_EQ(dot.find("n1 -> n0"), std::string::npos)
      << "mutual pair must collapse to one edge";
  EXPECT_NE(dot.find("n0 -> n2;"), std::string::npos);
}

TEST(DotTest, HighlightsMarked) {
  GeneratedNetwork net;
  net.bounds = {{0.0, 0.0}, {10.0, 10.0}};
  net.positions = {{1.0, 1.0}, {2.0, 2.0}};
  net.base_ranges = {1.0, 1.0};
  net.graph = Graph(2);
  DotOptions options;
  options.highlights = {1};
  const std::string dot = to_dot(net, options);
  EXPECT_NE(dot.find("fillcolor=gold"), std::string::npos);
  EXPECT_THROW(
      to_dot(net, DotOptions{.collapse_mutual = true,
                             .position_scale = 1.0,
                             .highlights = {9}}),
      ConfigError);
}

TEST(DotTest, NoCollapseEmitsBothArcs) {
  GeneratedNetwork net;
  net.bounds = {{0.0, 0.0}, {10.0, 10.0}};
  net.positions = {{1.0, 1.0}, {2.0, 2.0}};
  net.base_ranges = {1.0, 1.0};
  net.graph = Graph(2);
  net.graph.add_undirected_edge(0, 1);
  DotOptions options;
  options.collapse_mutual = false;
  const std::string dot = to_dot(net, options);
  EXPECT_NE(dot.find("n0 -> n1;"), std::string::npos);
  EXPECT_NE(dot.find("n1 -> n0;"), std::string::npos);
}

TEST(SeriesCsvTest, EqualLengthSeries) {
  std::ostringstream os;
  write_series_csv(os, {"a", "b"}, {{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_EQ(os.str(), "step,a,b\n0,1,3\n1,2,4\n");
}

TEST(SeriesCsvTest, RaggedSeriesLeaveBlanks) {
  std::ostringstream os;
  write_series_csv(os, {"a", "b"}, {{1.0}, {3.0, 4.0}});
  EXPECT_EQ(os.str(), "step,a,b\n0,1,3\n1,,4\n");
}

TEST(SeriesCsvTest, NameCountMismatchThrows) {
  std::ostringstream os;
  EXPECT_THROW(write_series_csv(os, {"a"}, {{1.0}, {2.0}}), ConfigError);
}

}  // namespace
}  // namespace agentnet
