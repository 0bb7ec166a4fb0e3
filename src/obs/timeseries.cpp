#include "obs/timeseries.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <mutex>
#include <set>
#include <utility>

#include "common/atomic_file.hpp"
#include "common/error.hpp"

namespace agentnet::obs {

namespace {

constexpr const char* kGaugeNames[] = {
    "live_fraction",      // kLiveFraction
    "battery_alive",      // kBatteryAlive
    "connectivity",       // kConnectivity
    "oracle_connectivity",// kOracleConnectivity
    "knowledge",          // kKnowledge
    "queue_depth",        // kQueueDepth
    "pheromone_entropy",  // kPheromoneEntropy
};
static_assert(std::size(kGaugeNames) == kGaugeCount,
              "every Gauge enumerator needs a name in kGaugeNames");

/// std::to_chars shortest round-trip form: re-parsing yields the same
/// double bit-for-bit, and the output is locale-independent.
void append_double(std::string& out, double value) {
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof buf, value);
  AGENTNET_ASSERT(result.ec == std::errc());
  out.append(buf, result.ptr);
}

void append_u64(std::string& out, const char* key, std::uint64_t value) {
  out += ",\"";
  out += key;
  out += "\":";
  out += std::to_string(value);
}

}  // namespace

const char* gauge_name(Gauge gauge) {
  const auto i = static_cast<std::size_t>(gauge);
  return i < kGaugeCount ? kGaugeNames[i] : "?";
}

std::uint64_t histogram_quantile(std::span<const std::uint64_t> histogram,
                                 double q) {
  AGENTNET_ASSERT(q >= 0.0 && q <= 1.0);
  std::uint64_t total = 0;
  for (const std::uint64_t count : histogram) total += count;
  if (total == 0) return 0;
  auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total)));
  rank = std::clamp<std::uint64_t>(rank, 1, total);
  std::uint64_t cumulative = 0;
  for (std::size_t value = 0; value < histogram.size(); ++value) {
    cumulative += histogram[value];
    if (cumulative >= rank) return value;
  }
  return histogram.size() - 1;
}

MetricsRow& MetricsBuffer::row_for(std::uint64_t step) {
  if (!rows_.empty() && rows_.back().step == step) return rows_.back();
  AGENTNET_ASSERT_MSG(rows_.empty() || rows_.back().step < step,
                      "metrics rows must be appended in step order");
  rows_.emplace_back();
  rows_.back().step = step;
  return rows_.back();
}

void MetricsBuffer::gauge(std::uint64_t step, Gauge gauge, double value) {
  if (!want(step)) return;
  MetricsRow& row = row_for(step);
  const auto i = static_cast<std::size_t>(gauge);
  row.gauges[i] = value;
  row.has_gauge[i] = true;
}

void MetricsBuffer::tick(std::uint64_t step, const CounterSlot& counters) {
  if (!want(step)) return;
  MetricsRow& row = row_for(step);
  const MetricsSnapshot now = snapshot(counters);
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    // Machinery bookkeeping stays out of the stream: a resumed run's rows
    // must be byte-identical to the uninterrupted run's, and a
    // parallel-agent run's to the serial run's.
    if (is_bookkeeping_counter(static_cast<Counter>(i))) continue;
    row.deltas[i] += now.values[i] - last_counters_.values[i];
  }
  last_counters_ = now;
}

void MetricsBuffer::sample_latency(std::uint64_t step,
                                   std::span<const std::uint64_t> histogram) {
  if (!want(step)) return;
  MetricsRow& row = row_for(step);
  // A shrunk bucket means the data plane's stats were reset (measure_from),
  // so the current histogram is itself the window.
  bool reset = histogram.size() < last_latency_.size();
  if (!reset) {
    for (std::size_t i = 0; i < last_latency_.size(); ++i)
      if (histogram[i] < last_latency_[i]) {
        reset = true;
        break;
      }
  }
  window_.assign(histogram.begin(), histogram.end());
  if (!reset)
    for (std::size_t i = 0; i < last_latency_.size(); ++i)
      window_[i] -= last_latency_[i];
  std::uint64_t count = 0;
  for (const std::uint64_t c : window_) count += c;
  row.has_latency = true;
  row.lat_count = count;
  row.lat_p50 = count == 0 ? 0 : histogram_quantile(window_, 0.50);
  row.lat_p95 = count == 0 ? 0 : histogram_quantile(window_, 0.95);
  row.lat_p99 = count == 0 ? 0 : histogram_quantile(window_, 0.99);
  last_latency_.assign(histogram.begin(), histogram.end());
}

void MetricsBuffer::save_state(snapshot::ByteWriter& w) const {
  w.size(rows_.size());
  for (const MetricsRow& row : rows_) {
    w.u64(row.step);
    for (std::size_t i = 0; i < kGaugeCount; ++i) {
      w.boolean(row.has_gauge[i]);
      w.f64(row.gauges[i]);
    }
    for (std::size_t i = 0; i < kCounterCount; ++i) w.u64(row.deltas[i]);
    w.boolean(row.has_latency);
    w.u64(row.lat_count);
    w.u64(row.lat_p50);
    w.u64(row.lat_p95);
    w.u64(row.lat_p99);
  }
  for (std::size_t i = 0; i < kCounterCount; ++i)
    w.u64(last_counters_.values[i]);
  w.pod_vec(last_latency_);
}

void MetricsBuffer::load_state(snapshot::ByteReader& r) {
  const std::size_t n = r.counted(8);
  rows_.clear();
  rows_.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    MetricsRow row;
    row.step = r.u64();
    for (std::size_t i = 0; i < kGaugeCount; ++i) {
      row.has_gauge[i] = r.boolean();
      row.gauges[i] = r.f64();
    }
    for (std::size_t i = 0; i < kCounterCount; ++i) row.deltas[i] = r.u64();
    row.has_latency = r.boolean();
    row.lat_count = r.u64();
    row.lat_p50 = r.u64();
    row.lat_p95 = r.u64();
    row.lat_p99 = r.u64();
    rows_.push_back(row);
  }
  for (std::size_t i = 0; i < kCounterCount; ++i)
    last_counters_.values[i] = r.u64();
  r.pod_vec(last_latency_);
}

std::string serialize_metrics_line(std::int64_t run, const MetricsRow& row) {
  std::string out = "{\"run\":";
  out += std::to_string(run);
  out += ",\"step\":";
  out += std::to_string(row.step);
  for (std::size_t i = 0; i < kGaugeCount; ++i) {
    if (!row.has_gauge[i]) continue;
    out += ",\"";
    out += kGaugeNames[i];
    out += "\":";
    append_double(out, row.gauges[i]);
  }
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    if (row.deltas[i] == 0) continue;
    out += ",\"d_";
    out += counter_name(static_cast<Counter>(i));
    out += "\":";
    out += std::to_string(row.deltas[i]);
  }
  if (row.has_latency) {
    append_u64(out, "lat_n", row.lat_count);
    append_u64(out, "lat_p50", row.lat_p50);
    append_u64(out, "lat_p95", row.lat_p95);
    append_u64(out, "lat_p99", row.lat_p99);
  }
  out += "}";
  return out;
}

std::string serialize_metrics_group(std::uint64_t runs, std::uint64_t every) {
  std::string out = "{\"group\":\"metrics\",\"runs\":";
  out += std::to_string(runs);
  out += ",\"every\":";
  out += std::to_string(every);
  out += "}";
  return out;
}

namespace {

/// Tokenizes a flat {"key":value,...} object whose values are numbers
/// (integer or double) or strings. The trace parser's sibling; this one
/// admits the double syntax std::to_chars emits.
bool tokenize_metrics_object(
    const std::string& line,
    std::vector<std::pair<std::string, std::string>>& pairs,
    std::vector<bool>& is_string, std::string* error) {
  const auto fail = [&](const std::string& message) {
    if (error) *error = message;
    return false;
  };
  std::size_t i = 0;
  const auto skip_ws = [&] {
    while (i < line.size() &&
           std::isspace(static_cast<unsigned char>(line[i])))
      ++i;
  };
  skip_ws();
  if (i >= line.size() || line[i] != '{') return fail("expected '{'");
  ++i;
  skip_ws();
  if (i < line.size() && line[i] == '}') {
    ++i;
  } else {
    while (true) {
      skip_ws();
      if (i >= line.size() || line[i] != '"')
        return fail("expected '\"' starting a key");
      const std::size_t key_start = ++i;
      while (i < line.size() && line[i] != '"') ++i;
      if (i >= line.size()) return fail("unterminated key");
      std::string key = line.substr(key_start, i - key_start);
      ++i;
      skip_ws();
      if (i >= line.size() || line[i] != ':') return fail("expected ':'");
      ++i;
      skip_ws();
      std::string value;
      bool quoted = false;
      if (i < line.size() && line[i] == '"') {
        quoted = true;
        const std::size_t value_start = ++i;
        while (i < line.size() && line[i] != '"') ++i;
        if (i >= line.size()) return fail("unterminated string value");
        value = line.substr(value_start, i - value_start);
        ++i;
      } else {
        const std::size_t value_start = i;
        while (i < line.size() &&
               (std::isdigit(static_cast<unsigned char>(line[i])) ||
                line[i] == '-' || line[i] == '+' || line[i] == '.' ||
                line[i] == 'e' || line[i] == 'E'))
          ++i;
        if (i == value_start) return fail("expected number or string value");
        value = line.substr(value_start, i - value_start);
      }
      pairs.emplace_back(std::move(key), std::move(value));
      is_string.push_back(quoted);
      skip_ws();
      if (i < line.size() && line[i] == ',') {
        ++i;
        continue;
      }
      if (i < line.size() && line[i] == '}') {
        ++i;
        break;
      }
      return fail("expected ',' or '}'");
    }
  }
  skip_ws();
  if (i != line.size()) return fail("trailing characters after '}'");
  return true;
}

bool parse_u64(const std::string& value, std::uint64_t& out) {
  const char* begin = value.data();
  const char* end = begin + value.size();
  const auto result = std::from_chars(begin, end, out);
  return result.ec == std::errc() && result.ptr == end;
}

bool parse_i64(const std::string& value, std::int64_t& out) {
  const char* begin = value.data();
  const char* end = begin + value.size();
  const auto result = std::from_chars(begin, end, out);
  return result.ec == std::errc() && result.ptr == end;
}

bool parse_double(const std::string& value, double& out) {
  const char* begin = value.data();
  const char* end = begin + value.size();
  const auto result = std::from_chars(begin, end, out);
  return result.ec == std::errc() && result.ptr == end;
}

}  // namespace

std::optional<MetricsRecord> parse_metrics_line(const std::string& line,
                                                std::string* error) {
  std::vector<std::pair<std::string, std::string>> pairs;
  std::vector<bool> is_string;
  if (!tokenize_metrics_object(line, pairs, is_string, error))
    return std::nullopt;
  const auto fail = [&](const std::string& message) {
    if (error) *error = message;
    return std::nullopt;
  };

  MetricsRecord record;
  for (const auto& [key, value] : pairs)
    if (key == "group") {
      if (value != "metrics")
        return fail("unknown group kind: " + value);
      record.is_group = true;
    }

  if (record.is_group) {
    bool have_runs = false, have_every = false;
    for (const auto& [key, value] : pairs) {
      if (key == "group") continue;
      if (key == "runs") {
        if (!parse_u64(value, record.runs))
          return fail("runs is not an integer: " + value);
        have_runs = true;
      } else if (key == "every") {
        if (!parse_u64(value, record.every))
          return fail("every is not an integer: " + value);
        have_every = true;
      } else {
        return fail("unknown group field \"" + key + "\"");
      }
    }
    if (!have_runs || !have_every)
      return fail("group header needs runs and every");
    return record;
  }

  bool have_run = false, have_step = false;
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const auto& [key, value] = pairs[p];
    if (is_string[p]) return fail("unexpected string value for " + key);
    if (key == "run") {
      if (!parse_i64(value, record.run) || record.run < 0)
        return fail("run is not a non-negative integer: " + value);
      have_run = true;
      continue;
    }
    if (key == "step") {
      if (!parse_u64(value, record.row.step))
        return fail("step is not an integer: " + value);
      have_step = true;
      continue;
    }
    if (key == "lat_n" || key == "lat_p50" || key == "lat_p95" ||
        key == "lat_p99") {
      std::uint64_t parsed = 0;
      if (!parse_u64(value, parsed))
        return fail("field " + key + " is not an integer: " + value);
      record.row.has_latency = true;
      if (key == "lat_n")
        record.row.lat_count = parsed;
      else if (key == "lat_p50")
        record.row.lat_p50 = parsed;
      else if (key == "lat_p95")
        record.row.lat_p95 = parsed;
      else
        record.row.lat_p99 = parsed;
      continue;
    }
    if (key.starts_with("d_")) {
      const std::string name = key.substr(2);
      bool matched = false;
      for (std::size_t i = 0; i < kCounterCount; ++i)
        if (name == counter_name(static_cast<Counter>(i))) {
          if (!parse_u64(value, record.row.deltas[i]))
            return fail("field " + key + " is not an integer: " + value);
          matched = true;
          break;
        }
      if (!matched) return fail("unknown counter delta \"" + key + "\"");
      continue;
    }
    bool matched = false;
    for (std::size_t i = 0; i < kGaugeCount; ++i)
      if (key == kGaugeNames[i]) {
        if (!parse_double(value, record.row.gauges[i]))
          return fail("gauge " + key + " is not a number: " + value);
        record.row.has_gauge[i] = true;
        matched = true;
        break;
      }
    if (!matched) return fail("unknown field \"" + key + "\"");
  }
  if (!have_run || !have_step) return fail("row needs run and step fields");
  return record;
}

void write_metrics(const std::string& path,
                   std::span<const MetricsBuffer* const> buffers) {
  // Same per-process semantics as write_trace: the first write to a path
  // truncates; later experiments append further groups. Serialized so
  // concurrent experiments cannot interleave.
  static std::mutex mutex;
  static std::set<std::string>* opened = new std::set<std::string>();
  std::lock_guard<std::mutex> lock(mutex);
  const bool first = opened->insert(path).second;

  const auto emit = [&](std::ostream& os) {
    const std::uint64_t every = buffers.empty() ? 1 : buffers[0]->every();
    os << serialize_metrics_group(buffers.size(), every) << "\n";
    for (std::size_t run = 0; run < buffers.size(); ++run)
      for (const MetricsRow& row : buffers[run]->rows())
        os << serialize_metrics_line(static_cast<std::int64_t>(run), row)
           << "\n";
  };

  if (first) {
    // A crash mid-write must not leave a torn file at the target path.
    AtomicFileWriter file(path);
    emit(file.stream());
    file.commit();
  } else {
    // Appends cannot rename-over (that would drop the earlier groups);
    // they stay in place but still fail loudly on short writes.
    std::ofstream os(path, std::ios::app);
    AGENTNET_REQUIRE(os.is_open(), "cannot write metrics file " + path);
    emit(os);
    os.flush();
    AGENTNET_REQUIRE(os.good(), "error while writing metrics file " + path);
  }
}

}  // namespace agentnet::obs
