// metrics_report — the AGENTNET_METRICS time-series analyzer.
//
//   metrics_report validate  <metrics.jsonl>...
//   metrics_report summarize <metrics.jsonl> [--gauge=NAME] [--threshold=X]
//   metrics_report diff      <a.jsonl> <b.jsonl> [--tol=X]
//
// validate   — strict parse of every line (obs::parse_metrics_line); exits
//              non-zero on the first malformed line, reported as
//              path:line:byte N: <what>, or on a file without a group
//              header. The smoke's metrics gate.
// summarize  — per-gauge statistics over the per-step mean across runs
//              (samples, min, max, mean, AUC), the degradation/recovery
//              curve of one gauge (--gauge, default connectivity): first
//              step its mean drops below --threshold (default 0.5), the
//              first step it recovers, and the step count between them
//              (time-to-reconnect); windowed latency totals and summed
//              counter deltas.
// diff       — record-by-record comparison of two streams; byte-exact by
//              default (the determinism gate: threads=1 vs threads=N),
//              --tol=X allows gauge values to differ by at most X while
//              integers stay exact. Exits 1 on the first divergence.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "obs/timeseries.hpp"

using agentnet::obs::Gauge;
using agentnet::obs::kCounterCount;
using agentnet::obs::kGaugeCount;
using agentnet::obs::MetricsRecord;

namespace {

struct ParsedFile {
  std::vector<MetricsRecord> records;  ///< In file order, groups included.
  std::size_t groups = 0;
  std::size_t rows = 0;
};

bool read_file(const char* path, ParsedFile& out) {
  std::ifstream is(path);
  if (!is.is_open()) {
    std::fprintf(stderr, "metrics_report: cannot open %s\n", path);
    return false;
  }
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::string error;
    const auto record = agentnet::obs::parse_metrics_line(line, &error);
    if (!record) {
      std::fprintf(stderr, "metrics_report: %s:%zu:%s\n", path, line_no,
                   error.c_str());
      return false;
    }
    if (record->is_group)
      ++out.groups;
    else
      ++out.rows;
    out.records.push_back(*record);
  }
  if (out.groups == 0) {
    std::fprintf(stderr, "metrics_report: %s: no metrics group header\n",
                 path);
    return false;
  }
  return true;
}

int run_validate(const std::vector<const char*>& files) {
  bool ok = true;
  for (const char* path : files) {
    ParsedFile parsed;
    if (!read_file(path, parsed)) {
      ok = false;
      continue;
    }
    std::printf("metrics_report: %s: %zu groups, %zu rows ok\n", path,
                parsed.groups, parsed.rows);
  }
  return ok ? 0 : 1;
}

/// Mean across runs of one gauge at each sampled step, in step order.
std::vector<std::pair<std::uint64_t, double>> step_means(
    const ParsedFile& parsed, std::size_t gauge) {
  std::map<std::uint64_t, std::pair<double, std::size_t>> acc;
  for (const MetricsRecord& record : parsed.records) {
    if (record.is_group || !record.row.has_gauge[gauge]) continue;
    auto& [sum, count] = acc[record.row.step];
    sum += record.row.gauges[gauge];
    ++count;
  }
  std::vector<std::pair<std::uint64_t, double>> series;
  series.reserve(acc.size());
  for (const auto& [step, entry] : acc)
    series.emplace_back(step, entry.first / static_cast<double>(entry.second));
  return series;
}

/// Step-function area under the series: each sample covers the gap to the
/// next sampled step (the final sample reuses the preceding gap, or 1).
double series_auc(const std::vector<std::pair<std::uint64_t, double>>& s) {
  double auc = 0.0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    double dt = 1.0;
    if (i + 1 < s.size())
      dt = static_cast<double>(s[i + 1].first - s[i].first);
    else if (i > 0)
      dt = static_cast<double>(s[i].first - s[i - 1].first);
    auc += s[i].second * dt;
  }
  return auc;
}

int run_summarize(const char* path, const std::string& gauge_name,
                  double threshold) {
  std::size_t target = kGaugeCount;
  for (std::size_t g = 0; g < kGaugeCount; ++g)
    if (gauge_name == agentnet::obs::gauge_name(static_cast<Gauge>(g)))
      target = g;
  if (target == kGaugeCount) {
    std::fprintf(stderr, "metrics_report: unknown gauge '%s'\n",
                 gauge_name.c_str());
    return 2;
  }
  ParsedFile parsed;
  if (!read_file(path, parsed)) return 1;
  std::printf("metrics_report: %s: %zu groups, %zu rows\n", path,
              parsed.groups, parsed.rows);

  for (std::size_t g = 0; g < kGaugeCount; ++g) {
    const auto series = step_means(parsed, g);
    if (series.empty()) continue;
    double lo = series.front().second, hi = lo, sum = 0.0;
    for (const auto& [step, value] : series) {
      lo = std::min(lo, value);
      hi = std::max(hi, value);
      sum += value;
    }
    std::printf(
        "gauge %s: samples %zu, min %.6g, max %.6g, mean %.6g, auc %.6g\n",
        agentnet::obs::gauge_name(static_cast<Gauge>(g)), series.size(), lo,
        hi, sum / static_cast<double>(series.size()), series_auc(series));
  }

  // Degradation / recovery curve of the selected gauge: when did its
  // cross-run mean first sink below the threshold, and when was it back?
  const auto curve = step_means(parsed, target);
  if (curve.empty()) {
    std::printf("curve %s: no samples\n", gauge_name.c_str());
  } else {
    std::int64_t drop = -1, recover = -1;
    for (const auto& [step, value] : curve) {
      if (drop < 0 && value < threshold) drop = static_cast<std::int64_t>(step);
      if (drop >= 0 && recover < 0 && value >= threshold &&
          static_cast<std::int64_t>(step) > drop)
        recover = static_cast<std::int64_t>(step);
    }
    if (drop < 0) {
      std::printf("curve %s: never below threshold %g\n", gauge_name.c_str(),
                  threshold);
    } else if (recover < 0) {
      std::printf(
          "curve %s: below threshold %g from step %lld, never recovered\n",
          gauge_name.c_str(), threshold, static_cast<long long>(drop));
    } else {
      std::printf(
          "curve %s: below threshold %g at step %lld, recovered at step "
          "%lld, time_to_reconnect %lld\n",
          gauge_name.c_str(), threshold, static_cast<long long>(drop),
          static_cast<long long>(recover),
          static_cast<long long>(recover - drop));
    }
  }

  // Windowed latency totals: every has_latency row is one (run, window).
  std::size_t windows = 0;
  std::uint64_t packets = 0, p99_max = 0;
  for (const MetricsRecord& record : parsed.records) {
    if (record.is_group || !record.row.has_latency) continue;
    ++windows;
    packets += record.row.lat_count;
    p99_max = std::max(p99_max, record.row.lat_p99);
  }
  if (windows > 0)
    std::printf("latency: %zu windows, %llu packets, worst p99 %llu steps\n",
                windows, static_cast<unsigned long long>(packets),
                static_cast<unsigned long long>(p99_max));

  // Counter deltas summed over every row reproduce the run totals.
  std::vector<std::uint64_t> totals(kCounterCount, 0);
  for (const MetricsRecord& record : parsed.records) {
    if (record.is_group) continue;
    for (std::size_t i = 0; i < kCounterCount; ++i)
      totals[i] += record.row.deltas[i];
  }
  for (std::size_t i = 0; i < kCounterCount; ++i)
    if (totals[i] != 0)
      std::printf("delta_total %s: %llu\n",
                  agentnet::obs::counter_name(
                      static_cast<agentnet::obs::Counter>(i)),
                  static_cast<unsigned long long>(totals[i]));
  return 0;
}

bool rows_match(const MetricsRecord& a, const MetricsRecord& b, double tol) {
  if (a.is_group != b.is_group) return false;
  if (a.is_group) return a.runs == b.runs && a.every == b.every;
  if (a.run != b.run || a.row.step != b.row.step) return false;
  if (a.row.has_gauge != b.row.has_gauge) return false;
  for (std::size_t g = 0; g < kGaugeCount; ++g)
    if (a.row.has_gauge[g] &&
        std::abs(a.row.gauges[g] - b.row.gauges[g]) > tol)
      return false;
  return a.row.deltas == b.row.deltas &&
         a.row.has_latency == b.row.has_latency &&
         a.row.lat_count == b.row.lat_count &&
         a.row.lat_p50 == b.row.lat_p50 && a.row.lat_p95 == b.row.lat_p95 &&
         a.row.lat_p99 == b.row.lat_p99;
}

int run_diff(const char* path_a, const char* path_b, double tol) {
  ParsedFile a, b;
  if (!read_file(path_a, a) || !read_file(path_b, b)) return 1;
  const std::size_t n = std::min(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < n; ++i) {
    const bool same =
        tol == 0.0 ? a.records[i].is_group == b.records[i].is_group &&
                         (a.records[i].is_group
                              ? a.records[i].runs == b.records[i].runs &&
                                    a.records[i].every == b.records[i].every
                              : a.records[i].run == b.records[i].run &&
                                    a.records[i].row == b.records[i].row)
                   : rows_match(a.records[i], b.records[i], tol);
    if (!same) {
      const auto& ra = a.records[i];
      std::fprintf(stderr,
                   "metrics_report: diverges at record %zu (%s run %lld "
                   "step %llu)\n",
                   i + 1, ra.is_group ? "group" : "row",
                   static_cast<long long>(ra.run),
                   static_cast<unsigned long long>(ra.row.step));
      return 1;
    }
  }
  if (a.records.size() != b.records.size()) {
    std::fprintf(stderr,
                 "metrics_report: record count differs: %zu vs %zu\n",
                 a.records.size(), b.records.size());
    return 1;
  }
  std::printf("metrics_report: %s == %s (%zu records%s)\n", path_a, path_b,
              a.records.size(), tol == 0.0 ? ", exact" : "");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto usage = [] {
    std::fprintf(
        stderr,
        "usage: metrics_report validate  <metrics.jsonl>...\n"
        "       metrics_report summarize <metrics.jsonl> [--gauge=NAME] "
        "[--threshold=X]\n"
        "       metrics_report diff      <a.jsonl> <b.jsonl> [--tol=X]\n");
    return 2;
  };
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  std::vector<const char*> files;
  std::string gauge = "connectivity";
  double threshold = 0.5, tol = 0.0;
  for (int arg = 2; arg < argc; ++arg) {
    if (std::strncmp(argv[arg], "--gauge=", 8) == 0)
      gauge = argv[arg] + 8;
    else if (std::strncmp(argv[arg], "--threshold=", 12) == 0)
      threshold = std::atof(argv[arg] + 12);
    else if (std::strncmp(argv[arg], "--tol=", 6) == 0)
      tol = std::atof(argv[arg] + 6);
    else if (std::strncmp(argv[arg], "--", 2) == 0) {
      std::fprintf(stderr, "metrics_report: unknown flag %s\n", argv[arg]);
      return 2;
    } else
      files.push_back(argv[arg]);
  }
  if (mode == "validate" && !files.empty()) return run_validate(files);
  if (mode == "summarize" && files.size() == 1)
    return run_summarize(files[0], gauge, threshold);
  if (mode == "diff" && files.size() == 2)
    return run_diff(files[0], files[1], tol);
  return usage();
}
