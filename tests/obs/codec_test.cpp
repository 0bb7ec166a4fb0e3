// The telemetry codec (obs/codec.hpp) through the three formats it serves.
//
// Mutation test: byte flips, truncations and splices of real trace,
// metrics and manifest output, from a fixed seed. The unmutated output
// reads back to its own bytes. Every mutant is either rejected with
// "byte N: <what>" naming an offset inside it (N == size means its end),
// or accepted, and then its re-serialization reads back to the same
// record.
#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "obs/manifest.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace agentnet {
namespace {

constexpr int kMutantsPerFormat = 4000;

/// Fails unless `error` reads "byte N: <what>" with N <= input.size().
void expect_offset_inside(const std::string& error, const std::string& input) {
  ASSERT_TRUE(error.starts_with("byte ")) << error << "\ninput: " << input;
  std::size_t at = 0;
  const char* end = error.data() + error.size();
  const auto result = std::from_chars(error.data() + 5, end, at);
  ASSERT_EQ(result.ec, std::errc()) << error;
  EXPECT_TRUE(std::string_view(result.ptr, end).starts_with(": ") &&
              end - result.ptr > 2)
      << error;
  EXPECT_LE(at, input.size()) << error << "\ninput: " << input;
}

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::string operator()(const std::vector<std::string>& corpus) {
    const std::string& base = pick(corpus);
    std::string out = base;
    switch (rng_.uniform(3)) {
      case 0:  // flip one to three bytes
        for (std::uint64_t n = 1 + rng_.uniform(3); n > 0; --n)
          out[rng_.uniform(out.size())] = byte();
        break;
      case 1:  // truncate
        out.resize(rng_.uniform(out.size()));
        break;
      default: {  // splice another output's tail onto this one's head
        const std::string& other = pick(corpus);
        out = base.substr(0, rng_.uniform(base.size() + 1)) +
              other.substr(rng_.uniform(other.size() + 1));
      }
    }
    return out;
  }

 private:
  const std::string& pick(const std::vector<std::string>& corpus) {
    return corpus[rng_.uniform(corpus.size())];
  }
  /// Half the flips write a byte the grammar cares about, half any byte.
  char byte() {
    static constexpr std::string_view kSyntax = "{}\":,\\-+.eE0123456789 ntr";
    if (rng_.bernoulli(0.5)) return kSyntax[rng_.uniform(kSyntax.size())];
    return static_cast<char>(rng_.uniform(256));
  }

  Rng rng_;
};

/// The trace format writes a negative id as absent (-1), so an accepted
/// negative id reads back as -1.
obs::TraceRecord canonical(obs::TraceRecord record) {
  for (std::int64_t* id : {&record.run, &record.event.agent, &record.event.a,
                           &record.event.b})
    if (*id < 0) *id = -1;
  return record;
}

std::vector<std::string> trace_corpus() {
  std::vector<std::string> lines;
  for (std::size_t k = 0;
       k < static_cast<std::size_t>(obs::TraceEventKind::kCount); ++k) {
    obs::TraceEvent event;
    event.kind = static_cast<obs::TraceEventKind>(k);
    event.step = 100 + 37 * k;
    event.agent = static_cast<std::int64_t>(k);
    event.a = 1000 + static_cast<std::int64_t>(k);
    event.b = 12;
    lines.push_back(obs::serialize_trace_line(
        event.kind == obs::TraceEventKind::kRunGroup ? -1 : 3, event));
  }
  return lines;
}

std::vector<std::string> metrics_corpus() {
  std::vector<std::string> lines = {obs::serialize_metrics_group(4, 7),
                                    obs::serialize_metrics_group(1, 1)};
  obs::MetricsRow row;
  row.step = 42;
  const auto conn = static_cast<std::size_t>(obs::Gauge::kConnectivity);
  const auto live = static_cast<std::size_t>(obs::Gauge::kLiveFraction);
  row.has_gauge[conn] = row.has_gauge[live] = true;
  row.gauges[conn] = 0.1 + 0.2;
  row.gauges[live] = 1e-300;
  row.deltas[static_cast<std::size_t>(obs::Counter::kAgentHops)] = 17;
  lines.push_back(obs::serialize_metrics_line(2, row));
  row.has_latency = true;
  row.lat_count = 5;
  row.lat_p50 = 3;
  row.lat_p95 = 9;
  row.lat_p99 = 11;
  lines.push_back(obs::serialize_metrics_line(0, row));
  return lines;
}

std::vector<std::string> manifest_corpus() {
  obs::RunManifest manifest;
  manifest.library_version = "1.2.3";
  manifest.build_type = "release";
  manifest.cmake_build_type = "Release";
  manifest.obs_level = 2;
  manifest.seed = 2010;
  manifest.runs = 40;
  manifest.threads = 4;
  manifest.metrics_every = 5;
  manifest.trace_path = "runs/a \"quoted\" trace.jsonl";
  manifest.env = {{"AGENTNET_A", "say \"hi\"\\n"},
                  {"AGENTNET_B", "tab\there\nnext\rline\\"}};
  std::vector<std::string> texts = {obs::manifest_json(manifest)};
  manifest.env.clear();
  texts.push_back(obs::manifest_json(manifest));
  return texts;
}

/// `read(text)` returns the re-serialization of what it accepted, or
/// nullopt. Every corpus entry must read back to itself; then the mutants
/// run, and both outcomes must occur.
template <typename Read>
void mutate(const std::vector<std::string>& corpus, std::uint64_t seed,
            Read&& read) {
  for (const std::string& text : corpus) EXPECT_EQ(read(text), text);
  Mutator mutator(seed);
  int accepted = 0;
  for (int m = 0; m < kMutantsPerFormat; ++m) {
    const std::string mutant = mutator(corpus);
    SCOPED_TRACE(mutant);
    if (read(mutant)) ++accepted;
    if (::testing::Test::HasFatalFailure()) return;
  }
  ::testing::Test::RecordProperty("accepted", accepted);
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kMutantsPerFormat);
}

TEST(CodecMutationTest, TraceLinesAreRejectedWithAnOffsetOrReadBack) {
  mutate(trace_corpus(), 1,
         [](const std::string& text) -> std::optional<std::string> {
           std::string error;
           const auto record = obs::parse_trace_line(text, &error);
           if (!record) {
             expect_offset_inside(error, text);
             return std::nullopt;
           }
           const std::string again =
               obs::serialize_trace_line(record->run, record->event);
           const auto reread = obs::parse_trace_line(again, &error);
           EXPECT_TRUE(reread.has_value()) << error;
           if (reread) {
             EXPECT_EQ(reread->run, canonical(*record).run);
             EXPECT_EQ(reread->event, canonical(*record).event);
           }
           return again;
         });
}

TEST(CodecMutationTest, MetricsLinesAreRejectedWithAnOffsetOrReadBack) {
  mutate(metrics_corpus(), 2,
         [](const std::string& text) -> std::optional<std::string> {
           std::string error;
           const auto record = obs::parse_metrics_line(text, &error);
           if (!record) {
             expect_offset_inside(error, text);
             return std::nullopt;
           }
           const std::string again =
               record->is_group
                   ? obs::serialize_metrics_group(record->runs, record->every)
                   : obs::serialize_metrics_line(record->run, record->row);
           const auto reread = obs::parse_metrics_line(again, &error);
           EXPECT_TRUE(reread.has_value()) << error;
           if (reread) {
             EXPECT_EQ(reread->is_group, record->is_group);
             EXPECT_EQ(reread->runs, record->runs);
             EXPECT_EQ(reread->every, record->every);
             EXPECT_EQ(reread->run, record->run);
             EXPECT_EQ(reread->row, record->row);
           }
           return again;
         });
}

TEST(CodecMutationTest, ManifestsAreRejectedWithAnOffsetOrReadBack) {
  mutate(manifest_corpus(), 3,
         [](const std::string& text) -> std::optional<std::string> {
           std::string error;
           const auto manifest = obs::parse_manifest_json(text, &error);
           if (!manifest) {
             expect_offset_inside(error, text);
             return std::nullopt;
           }
           const std::string again = obs::manifest_json(*manifest);
           const auto reread = obs::parse_manifest_json(again, &error);
           EXPECT_TRUE(reread.has_value()) << error;
           if (reread) {
             EXPECT_EQ(*reread, *manifest);
           }
           return again;
         });
}

TEST(CodecOffsetTest, EachFormatNamesTheByteWhereReadingStopped) {
  std::string error;
  EXPECT_FALSE(obs::parse_trace_line("{\"ev\":\"warp\",\"step\":3}", &error));
  EXPECT_EQ(error, "byte 6: unknown event kind: warp");
  EXPECT_FALSE(obs::parse_metrics_line("{\"run\":0,\"step\":oops}", &error));
  EXPECT_EQ(error, "byte 16: expected number or string value");
  EXPECT_FALSE(obs::parse_manifest_json("{\n  \"seed\": \"text\"\n}", &error));
  EXPECT_EQ(error, "byte 12: expected integer");
}

TEST(CodecWriterTest, EachFormatKeepsItsBytes) {
  obs::TraceEvent move;
  move.kind = obs::TraceEventKind::kMove;
  move.step = 12;
  move.agent = 3;
  move.a = 7;
  move.b = 9;
  EXPECT_EQ(obs::serialize_trace_line(2, move),
            "{\"run\":2,\"ev\":\"move\",\"step\":12,\"agent\":3,\"from\":7,"
            "\"to\":9}");
  EXPECT_EQ(obs::serialize_chrome_line(2, move),
            "{\"name\":\"move\",\"cat\":\"agentnet\",\"ph\":\"i\",\"s\":\"t\","
            "\"ts\":12,\"pid\":2,\"tid\":3,\"args\":{\"from\":7,\"to\":9}}");
  obs::TraceEvent finish;
  finish.kind = obs::TraceEventKind::kFinish;
  EXPECT_EQ(obs::serialize_chrome_line(-1, finish),
            "{\"name\":\"finish\",\"cat\":\"agentnet\",\"ph\":\"i\","
            "\"s\":\"t\",\"ts\":0,\"pid\":0,\"tid\":0,\"args\":{}}");

  obs::MetricsRow row;
  row.step = 5;
  const auto conn = static_cast<std::size_t>(obs::Gauge::kConnectivity);
  row.has_gauge[conn] = true;
  row.gauges[conn] = 0.1 + 0.2;
  row.deltas[static_cast<std::size_t>(obs::Counter::kAgentHops)] = 17;
  row.has_latency = true;
  row.lat_count = 4;
  row.lat_p50 = 1;
  row.lat_p95 = 2;
  row.lat_p99 = 3;
  EXPECT_EQ(obs::serialize_metrics_line(1, row),
            "{\"run\":1,\"step\":5,\"connectivity\":0.30000000000000004,"
            "\"d_agent_hops\":17,\"lat_n\":4,\"lat_p50\":1,\"lat_p95\":2,"
            "\"lat_p99\":3}");
  EXPECT_EQ(obs::serialize_metrics_group(4, 7),
            "{\"group\":\"metrics\",\"runs\":4,\"every\":7}");

  obs::RunManifest manifest;
  manifest.seed = ~std::uint64_t{0};
  manifest.env = {{"AGENTNET_A", "x\"y"}};
  EXPECT_EQ(obs::manifest_json(manifest),
            "{\n"
            "  \"library_version\": \"\",\n"
            "  \"build_type\": \"\",\n"
            "  \"cmake_build_type\": \"\",\n"
            "  \"obs_level\": " + std::to_string(AGENTNET_OBS_LEVEL) + ",\n"
            "  \"seed\": -1,\n"
            "  \"runs\": 0,\n"
            "  \"threads\": 0,\n"
            "  \"metrics_every\": 1,\n"
            "  \"trace_path\": \"\",\n"
            "  \"metrics_path\": \"\",\n"
            "  \"env\": {\n"
            "    \"AGENTNET_A\": \"x\\\"y\"\n"
            "  }\n"
            "}\n");
  manifest.env.clear();
  const std::string empty_env = obs::manifest_json(manifest);
  EXPECT_TRUE(empty_env.ends_with("  \"metrics_path\": \"\",\n"
                                  "  \"env\": {}\n"
                                  "}\n"))
      << empty_env;
}

}  // namespace
}  // namespace agentnet
