// Deterministic per-step time-series metrics.
//
// Counters (metrics.hpp) answer "how much, in total"; the paper's claims
// are *trajectories* — connectivity discovered over time, routing quality
// recovering after churn — so this layer records per-step samples:
//
//   * gauges     — instantaneous doubles (live-node fraction, connectivity,
//                  queue depth, pheromone entropy), sampled by the task
//                  loops at steps where step % metrics_every == 0;
//   * deltas     — counter increments since the previous sampled step
//                  (windowed rates, not cumulative totals);
//   * latency    — p50/p95/p99 of the flow data plane's exact integer
//                  latency histogram over the same window, via the same
//                  rank statistic FlowTrafficStats::latency_quantile uses.
//
// The determinism contract matches tracing (trace.hpp): every sample is a
// pure simulation quantity, each replication records into its own
// MetricsBuffer (the RunObs slot), and write_metrics() emits buffers in
// run-index order — so the JSONL stream is bit-identical at every
// AGENTNET_THREADS setting. At AGENTNET_OBS_LEVEL 0 the sampler macros in
// obs.hpp compile to nothing and the layer costs zero instructions.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/obs_level.hpp"
#include "snapshot/bytes.hpp"

namespace agentnet::obs {

/// The fixed gauge registry: like Counter, one enum so a row is a flat
/// array and serialization order never depends on sampling order.
enum class Gauge : std::size_t {
  kLiveFraction,       ///< Fraction of nodes up in the fault injector's mask.
  kBatteryAlive,       ///< Fraction of nodes with battery charge remaining.
  kConnectivity,       ///< Fraction of nodes holding a validating route.
  kOracleConnectivity, ///< BFS upper bound on the same step's topology.
  kKnowledge,          ///< Mean map-completeness across mapping agents.
  kQueueDepth,         ///< Data packets queued anywhere in the network.
  kPheromoneEntropy,   ///< Mean normalized entropy of pheromone rows (ACO).
  kCount
};

inline constexpr std::size_t kGaugeCount =
    static_cast<std::size_t>(Gauge::kCount);

/// Stable snake_case name, used as the JSONL key.
const char* gauge_name(Gauge gauge);

/// One sampled step of one run. Gauges carry presence flags (a routing run
/// never records knowledge); deltas default to zero and zero deltas are
/// omitted from the serialized form.
struct MetricsRow {
  std::uint64_t step = 0;
  std::array<double, kGaugeCount> gauges{};
  std::array<bool, kGaugeCount> has_gauge{};
  /// Counter increments since the previous sampled row of this run.
  std::array<std::uint64_t, kCounterCount> deltas{};
  bool has_latency = false;
  std::uint64_t lat_count = 0;  ///< Packets delivered inside the window.
  std::uint64_t lat_p50 = 0;
  std::uint64_t lat_p95 = 0;
  std::uint64_t lat_p99 = 0;
  friend bool operator==(const MetricsRow&, const MetricsRow&) = default;
};

/// Exact q-quantile (q in [0,1]) of an integer histogram where
/// histogram[v] counts samples of value v: the smallest v whose cumulative
/// count reaches ceil(q * total). 0 on an empty histogram. Element-wise
/// histogram addition commutes, so the statistic is independent of merge
/// order — the same rank rule FlowTrafficStats::latency_quantile applies
/// to the full-run histogram (docs/TRAFFIC.md).
std::uint64_t histogram_quantile(std::span<const std::uint64_t> histogram,
                                 double q);

/// One replication's time-series shard: single writer, rows appended in
/// increasing step order. Disabled (the default) every sampler is a no-op,
/// so the ambient slot never accumulates rows.
class MetricsBuffer {
 public:
  /// Turns sampling on; `every` >= 1 decimates to steps ≡ 0 (mod every).
  void enable(std::uint64_t every) {
    enabled_ = true;
    every_ = every == 0 ? 1 : every;
  }
  bool enabled() const { return enabled_; }
  std::uint64_t every() const { return every_; }

  /// True when `step` should be sampled — the cheap guard task loops use
  /// before computing gauges the simulation does not already pay for.
  bool want(std::uint64_t step) const {
    return enabled_ && step % every_ == 0;
  }

  /// Records one gauge sample at `step` (callers check want() first).
  void gauge(std::uint64_t step, Gauge gauge, double value);

  /// Closes the row for `step`: charges the counter increments since the
  /// previous tick to it. Called once at the end of each sampled step, so
  /// the window covers every step since the last sample, sampled or not.
  void tick(std::uint64_t step, const CounterSlot& counters);

  /// Snapshots the latency histogram's window since the previous sample:
  /// per-window packet count and p50/p95/p99 of the window's distribution.
  /// A bucket that shrank means the stats were reset (measure_from), in
  /// which case the current histogram is the window.
  void sample_latency(std::uint64_t step,
                      std::span<const std::uint64_t> histogram);

  const std::vector<MetricsRow>& rows() const { return rows_; }

  /// Checkpoint support: serializes / restores the sampling state (rows,
  /// last-counter snapshot, latency window baseline) so a resumed run's
  /// JSONL stream is byte-identical to the uninterrupted run's. The
  /// enabled/every configuration is not carried — it comes from the
  /// environment, which must match across save and resume.
  void save_state(snapshot::ByteWriter& w) const;
  void load_state(snapshot::ByteReader& r);

 private:
  MetricsRow& row_for(std::uint64_t step);

  bool enabled_ = false;
  std::uint64_t every_ = 1;
  std::vector<MetricsRow> rows_;
  MetricsSnapshot last_counters_;
  std::vector<std::uint64_t> last_latency_;
  std::vector<std::uint64_t> window_;  ///< Scratch for sample_latency.
};

/// One JSONL line: {"run":r,"step":s,<gauges>,<"d_"-prefixed deltas>,
/// <lat_* fields>}. Doubles use std::to_chars shortest round-trip form, so
/// serialization is locale-independent and parse_metrics_line reproduces
/// the exact bits.
std::string serialize_metrics_line(std::int64_t run, const MetricsRow& row);

/// A group header: {"group":"metrics","runs":N,"every":E}. One precedes
/// each experiment's rows, mirroring the trace run_group marker.
std::string serialize_metrics_group(std::uint64_t runs, std::uint64_t every);

/// A parsed JSONL record: either a group header or one run's row.
struct MetricsRecord {
  bool is_group = false;
  std::uint64_t runs = 0;   ///< Group only.
  std::uint64_t every = 0;  ///< Group only.
  std::int64_t run = -1;    ///< Row only.
  MetricsRow row;           ///< Row only.
};

/// Strict parse of one metrics JSONL line; nullopt (with `*error` filled
/// when given, as "byte N: <what>") on malformed input or unknown keys.
/// Round-trips exactly.
std::optional<MetricsRecord> parse_metrics_line(const std::string& line,
                                                std::string* error = nullptr);

/// Appends one experiment's buffers to `path` in run-index order (buffer i
/// is run i), preceded by a group header, through append_group like
/// write_trace: the first write replaces the file, later experiments
/// append.
void write_metrics(const std::string& path,
                   std::span<const MetricsBuffer* const> buffers);

}  // namespace agentnet::obs
