#include "obs/timeseries.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "common/error.hpp"
#include "obs/codec.hpp"

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
  std::string out;
  JsonWriter json(out);
  json.open();
  json.field("run", run);
  json.field("step", row.step);
  for (std::size_t i = 0; i < kGaugeCount; ++i)
    if (row.has_gauge[i]) json.field(kGaugeNames[i], row.gauges[i]);
  std::string key;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    if (row.deltas[i] == 0) continue;
    key.assign("d_").append(counter_name(static_cast<Counter>(i)));
    json.field(key, row.deltas[i]);
  }
  if (row.has_latency) {
    json.field("lat_n", row.lat_count);
    json.field("lat_p50", row.lat_p50);
    json.field("lat_p95", row.lat_p95);
    json.field("lat_p99", row.lat_p99);
  }
  json.close();
  return out;
}

std::string serialize_metrics_group(std::uint64_t runs, std::uint64_t every) {
  std::string out;
  JsonWriter json(out);
  json.open();
  json.field("group", "metrics");
  json.field("runs", runs);
  json.field("every", every);
  json.close();
  return out;
}

std::optional<MetricsRecord> parse_metrics_line(const std::string& line,
                                                std::string* error) {
  JsonReader reader(line, error);
  std::vector<FlatField> pairs;
  if (!read_flat_line(reader, pairs)) return std::nullopt;
  const auto fail = [&](std::size_t at, const std::string& message) {
    reader.fail_at(at, message);
    return std::nullopt;
  };

  MetricsRecord record;
  for (const FlatField& field : pairs)
    if (field.key == "group") {
      if (field.value != "metrics")
        return fail(field.value_at, "unknown group kind: " + field.value);
      record.is_group = true;
    }

  if (record.is_group) {
    bool have_runs = false, have_every = false;
    for (const FlatField& field : pairs) {
      const std::string& key = field.key;
      if (key == "group") continue;
      if (key == "runs") {
        if (!from_token(field.value, record.runs))
          return fail(field.value_at, "runs is not an integer: " + field.value);
        have_runs = true;
      } else if (key == "every") {
        if (!from_token(field.value, record.every))
          return fail(field.value_at,
                      "every is not an integer: " + field.value);
        have_every = true;
      } else {
        return fail(field.key_at, "unknown group field \"" + key + "\"");
      }
    }
    if (!have_runs || !have_every)
      return fail(reader.pos(), "group header needs runs and every");
    return record;
  }

  bool have_run = false, have_step = false;
  for (const FlatField& field : pairs) {
    const std::string& key = field.key;
    const std::string& value = field.value;
    const auto not_integer = [&] {
      return fail(field.value_at,
                  "field " + key + " is not an integer: " + value);
    };
    if (field.quoted)
      return fail(field.value_at, "unexpected string value for " + key);
    if (key == "run") {
      if (!from_token(value, record.run) || record.run < 0)
        return fail(field.value_at,
                    "run is not a non-negative integer: " + value);
      have_run = true;
      continue;
    }
    if (key == "step") {
      if (!from_token(value, record.row.step)) return not_integer();
      have_step = true;
      continue;
    }
    if (key == "lat_n" || key == "lat_p50" || key == "lat_p95" ||
        key == "lat_p99") {
      std::uint64_t parsed = 0;
      if (!from_token(value, parsed)) return not_integer();
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
      const std::string_view name = std::string_view(key).substr(2);
      bool matched = false;
      for (std::size_t i = 0; i < kCounterCount; ++i)
        if (name == counter_name(static_cast<Counter>(i))) {
          if (!from_token(value, record.row.deltas[i])) return not_integer();
          matched = true;
          break;
        }
      if (!matched)
        return fail(field.key_at, "unknown counter delta \"" + key + "\"");
      continue;
    }
    bool matched = false;
    for (std::size_t i = 0; i < kGaugeCount; ++i)
      if (key == kGaugeNames[i]) {
        if (!from_token(value, record.row.gauges[i]))
          return fail(field.value_at,
                      "gauge " + key + " is not a number: " + value);
        record.row.has_gauge[i] = true;
        matched = true;
        break;
      }
    if (!matched) return fail(field.key_at, "unknown field \"" + key + "\"");
  }
  if (!have_run || !have_step)
    return fail(reader.pos(), "row needs run and step fields");
  return record;
}

void write_metrics(const std::string& path,
                   std::span<const MetricsBuffer* const> buffers) {
  append_group(path, "metrics", [&](std::ostream& os, bool) {
    const std::uint64_t every = buffers.empty() ? 1 : buffers[0]->every();
    os << serialize_metrics_group(buffers.size(), every) << "\n";
    for (std::size_t run = 0; run < buffers.size(); ++run)
      for (const MetricsRow& row : buffers[run]->rows())
        os << serialize_metrics_line(static_cast<std::int64_t>(run), row)
           << "\n";
  });
}

}  // namespace agentnet::obs
