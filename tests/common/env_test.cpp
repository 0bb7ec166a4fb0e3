#include "common/env.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace agentnet {
namespace {

class EnvTest : public ::testing::Test {
 protected:
  void set(const char* name, const char* value) {
    ::setenv(name, value, 1);
    names_.push_back(name);
  }
  void TearDown() override {
    for (const auto& n : names_) ::unsetenv(n.c_str());
  }
  /// The ConfigError message `f` throws, or "" when it does not throw.
  template <typename F>
  static std::string error_of(F&& f) {
    try {
      f();
    } catch (const ConfigError& e) {
      return e.what();
    }
    return "";
  }
  std::vector<std::string> names_;
};

TEST_F(EnvTest, StringUnsetOrEmptyIsNullopt) {
  ::unsetenv("AGENTNET_CSV_DIR");
  EXPECT_FALSE(knob_string(Knob::kCsvDir).has_value());
  set("AGENTNET_CSV_DIR", "");
  EXPECT_FALSE(knob_string(Knob::kCsvDir).has_value());
}

TEST_F(EnvTest, StringRoundTrip) {
  set("AGENTNET_CSV_DIR", "hello");
  EXPECT_EQ(knob_string(Knob::kCsvDir).value(), "hello");
}

TEST_F(EnvTest, IntFallbackAndParse) {
  ::unsetenv("AGENTNET_METRICS_EVERY");
  EXPECT_EQ(knob_int(Knob::kMetricsEvery, 42), 42);
  set("AGENTNET_METRICS_EVERY", "17");
  EXPECT_EQ(knob_int(Knob::kMetricsEvery, 0), 17);
  set("AGENTNET_METRICS_EVERY", "12abc");
  EXPECT_THROW(knob_int(Knob::kMetricsEvery, 0), ConfigError);
}

TEST_F(EnvTest, IntRangeIsTheRowsAndNamesTheVariable) {
  // A value below the row's minimum is rejected, not wrapped: -4294967295
  // once read back as 1 through an int.
  for (const char* v : {"0", "-1", "-4294967295", "99999999999999999999"}) {
    set("AGENTNET_CHECKPOINT_EVERY", v);
    const std::string error =
        error_of([] { knob_int(Knob::kCheckpointEvery, 50); });
    EXPECT_NE(error.find("AGENTNET_CHECKPOINT_EVERY"), std::string::npos)
        << v << ": " << error;
  }
  set("AGENTNET_FAULT_CRASH_PERSISTENCE", "-1");
  EXPECT_THROW(knob_int(Knob::kFaultCrashPersistence, 10), ConfigError);
  set("AGENTNET_FAULT_KNOWLEDGE_TTL", "-1");
  EXPECT_THROW(knob_int(Knob::kFaultKnowledgeTtl, 0), ConfigError);
}

TEST_F(EnvTest, DoubleRejectsNonFiniteAndOutOfRange) {
  for (const char* v : {"inf", "nan", "1e999", "-0.5", "x"}) {
    set("AGENTNET_TOPO_RANGE_QUANTUM", v);
    const std::string error =
        error_of([] { knob_double(Knob::kTopoRangeQuantum, 0.0); });
    EXPECT_NE(error.find("AGENTNET_TOPO_RANGE_QUANTUM"), std::string::npos)
        << v << ": " << error;
  }
  set("AGENTNET_FAULT_AGENT_LOSS", "1.5");
  EXPECT_THROW(knob_double(Knob::kFaultAgentLoss, 0.0), ConfigError);
  set("AGENTNET_FAULT_AGENT_LOSS", "0.25");
  EXPECT_EQ(knob_double(Knob::kFaultAgentLoss, 0.0), 0.25);
}

TEST_F(EnvTest, BoolForms) {
  for (const char* v : {"1", "true", "YES", "On"}) {
    set("AGENTNET_FULL", v);
    EXPECT_TRUE(knob_bool(Knob::kFull, false)) << v;
  }
  for (const char* v : {"0", "false", "NO", "Off"}) {
    set("AGENTNET_FULL", v);
    EXPECT_FALSE(knob_bool(Knob::kFull, true)) << v;
  }
  set("AGENTNET_FULL", "maybe");
  EXPECT_THROW(knob_bool(Knob::kFull, false), ConfigError);
}

TEST_F(EnvTest, BenchRuns) {
  ::unsetenv("AGENTNET_RUNS");
  EXPECT_EQ(bench_runs(10), 10);
  set("AGENTNET_RUNS", "40");
  EXPECT_EQ(bench_runs(10), 40);
  set("AGENTNET_RUNS", "0");
  EXPECT_THROW(bench_runs(10), ConfigError);
}

TEST_F(EnvTest, BenchFullDefaultsOff) {
  ::unsetenv("AGENTNET_FULL");
  EXPECT_FALSE(bench_full());
}

TEST_F(EnvTest, RegisteredNamesPassTheCheck) {
  set("AGENTNET_FAULT_NODE_CRASH", "0.5");
  set("AGENTNET_THREADS", "");
  EXPECT_NO_THROW(check_environment());
}

TEST_F(EnvTest, MisspeltNameIsRejectedWithTheNearestName) {
  set("AGENTNET_FAULT_NODECRASH", "0.5");
  const std::string error = error_of([] { check_environment(); });
  EXPECT_NE(error.find("AGENTNET_FAULT_NODECRASH"), std::string::npos)
      << error;
  EXPECT_NE(error.find("nearest registered name: AGENTNET_FAULT_NODE_CRASH"),
            std::string::npos)
      << error;
  // Every configuration snapshot checks.
  EXPECT_THROW(bench_runs(10), ConfigError);
  EXPECT_THROW(bench_full(), ConfigError);
}

TEST_F(EnvTest, NearestNameOfATypo) {
  set("AGENTNET_THREADZ", "3");
  const std::string error = error_of([] { check_environment(); });
  EXPECT_NE(error.find("nearest registered name: AGENTNET_THREADS;"),
            std::string::npos)
      << error;
}

TEST_F(EnvTest, DeletedTrafficKnobIsRejected) {
  set("AGENTNET_TRAFFIC_QUEUE_CAPACITY", "16");
  const std::string error = error_of([] { check_environment(); });
  EXPECT_NE(error.find("unknown environment variable "
                       "AGENTNET_TRAFFIC_QUEUE_CAPACITY"),
            std::string::npos)
      << error;
}

TEST(KnobTableTest, NamesAreUniqueAndPrefixed) {
  std::set<std::string_view> names;
  for (const KnobSpec& spec : kKnobs) {
    EXPECT_TRUE(spec.name.starts_with("AGENTNET_")) << spec.name;
    EXPECT_TRUE(names.insert(spec.name).second) << spec.name;
    EXPECT_LE(spec.min, spec.max) << spec.name;
    EXPECT_FALSE(spec.doc.empty()) << spec.name;
  }
}

/// The backticked AGENTNET_* names that open table rows in the section of
/// `path` whose heading starts with `heading`; a wildcard row (`..._*`)
/// names a family documented elsewhere and is skipped.
std::set<std::string> documented(const std::string& path,
                                 const std::string& heading) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::set<std::string> names;
  bool inside = false;
  for (std::string line; std::getline(in, line);) {
    if (line.starts_with("## ")) inside = line.starts_with(heading);
    if (!inside || !line.starts_with("| `AGENTNET_")) continue;
    const std::string name = line.substr(3, line.find('`', 3) - 3);
    if (!name.ends_with('*')) names.insert(name);
  }
  return names;
}

TEST(KnobTableTest, MatchesTheDocumentedTables) {
  std::set<std::string> docs =
      documented(DOCS_DIR "/REPRODUCING.md", "## 2. Environment variables");
  const std::set<std::string> faults = documented(
      DOCS_DIR "/ROBUSTNESS.md", "## `AGENTNET_FAULT_*` environment");
  EXPECT_FALSE(faults.empty());
  docs.insert(faults.begin(), faults.end());
  std::set<std::string> registry;
  for (const KnobSpec& spec : kKnobs) registry.emplace(spec.name);
  for (const std::string& name : registry)
    EXPECT_TRUE(docs.contains(name)) << name << " is not documented";
  for (const std::string& name : docs)
    EXPECT_TRUE(registry.contains(name)) << name << " is not registered";
}

}  // namespace
}  // namespace agentnet
