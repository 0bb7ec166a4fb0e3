// agentnet_bench — runs one benchmark workload per process and prints one
// JSON object on stdout (benchmark/run.py builds, drives and reports it;
// benchmark/README.md is the metric dictionary).
//
// Everything is measured from the outside: each timed region is a call into
// a public src/ function (run_*_experiment, World::advance,
// AntRoutingSystem::step, FlowTrafficSimulator::step, oracle_connectivity,
// World::save_state/load_state, snapshot::save_checkpoint/load_checkpoint),
// and the library's own obs::Phase / obs::Counter totals are read back
// through ObsConfig::sink. Nothing inside src/ is instrumented for the
// benchmark.
//
// Untraced runs (--trace 0) measure the end-to-end metrics. Traced runs
// (--trace 1) record the benchmark's spans, pair every experiment call with
// a telemetry-on twin, run the per-layer probes, and measure the per-layer
// metrics.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "aco/ant_routing.hpp"
#include "common/agent_parallel.hpp"
#include "common/rng.hpp"
#include "energy/battery.hpp"
#include "experiments/mapping_experiments.hpp"
#include "experiments/paper.hpp"
#include "experiments/routing_experiments.hpp"
#include "experiments/traffic_experiments.hpp"
#include "mobility/mobility.hpp"
#include "net/generators.hpp"
#include "obs/obs.hpp"
#include "radio/range_model.hpp"
#include "routing/connectivity.hpp"
#include "routing/gateway_balancer.hpp"
#include "sim/world.hpp"
#include "snapshot/bytes.hpp"
#include "snapshot/snapshot.hpp"
#include "traffic/flow_traffic.hpp"

namespace agentnet::bench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Peak resident set of this process (VmHWM), in MiB. Read from
/// /proc/self/status: getrusage's ru_maxrss survives execve and would
/// report the launching interpreter's peak when the workload's is smaller.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Nearest-rank percentile (q in (0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// FNV-1a over a serialized summary: the digest pins every bit of it.
std::string digest_bytes(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---- Spans ----------------------------------------------------------------

/// The benchmark's own spans: one per call into a layer, nested by the
/// benchmark's call structure. Kept in memory, written once at the end.
class Tracer {
 public:
  struct Span {
    std::string name;
    const char* layer;
    int parent;
    int op;
    double start_us;
    double dur_us;
  };

  explicit Tracer(bool recording) : recording_(recording) {}
  bool recording() const { return recording_; }
  /// Pauses/resumes recording (the field loop alternates blocks to
  /// measure tracing overhead); open spans still close normally.
  void set_recording(bool on) { recording_ = on; }
  /// A fresh op id; spans of one op share it.
  int new_op() { return ++last_op_; }

  int open(const char* layer, std::string name, int op,
           Clock::time_point start) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    if (op < 0) op = parent >= 0 ? spans_[parent].op : 0;
    spans_.push_back({std::move(name), layer, parent, op,
                      1e6 * seconds_between(origin_, start), 0.0});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int index, Clock::time_point end) {
    Span& span = spans_[static_cast<std::size_t>(index)];
    span.dur_us = 1e6 * seconds_between(origin_, end) - span.start_us;
    if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool recording_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int last_op_ = 0;
};

/// Times a region; when the tracer records, also leaves a span.
class Timed {
 public:
  Timed(Tracer& tracer, const char* layer, std::string name, int op = -1)
      : tracer_(tracer), start_(Clock::now()) {
    if (tracer.recording())
      index_ = tracer.open(layer, std::move(name), op, start_);
  }
  ~Timed() { stop(); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  /// Ends the region (idempotent) and returns its length in seconds.
  double stop() {
    if (!done_) {
      done_ = true;
      end_ = Clock::now();
      if (index_ >= 0) tracer_.close(index_, end_);
    }
    return seconds_between(start_, end_);
  }

 private:
  Tracer& tracer_;
  Clock::time_point start_;
  Clock::time_point end_;
  int index_ = -1;
  bool done_ = false;
};

// ---- Run context and report ----------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = paper::kMappingNetworkSeed;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::size_t threads = 1;
  std::filesystem::path scratch;    ///< Telemetry files, checkpoints.
  std::filesystem::path artefacts;  ///< Chrome trace + self-time table.
};

struct Context {
  Options opt;
  Tracer tracer;
  /// Run r of every experiment is seeded run_seed_base + r. The default
  /// seed maps onto the paper's kRunSeedBase.
  std::uint64_t run_seed_base;

  std::vector<double> setup_s;
  std::uint64_t attempted = 0;
  std::vector<std::string> failures;
  std::map<std::string, std::string> digests;
  std::vector<std::pair<std::string, double>> metrics;
  /// Informational extras: name → (value, unit).
  std::vector<std::pair<std::string, std::pair<double, std::string>>> info;

  explicit Context(Options o)
      : opt(std::move(o)),
        tracer(opt.trace),
        run_seed_base(paper::kRunSeedBase +
                      (opt.seed - paper::kMappingNetworkSeed)) {}

  void metric(const std::string& name, double value) {
    metrics.emplace_back(name, value);
  }
  void note(const std::string& name, double value, const std::string& unit) {
    info.push_back({name, {value, unit}});
  }
  void fail(const std::string& label, const std::string& what) {
    failures.push_back(label + ": " + what);
  }
  /// Records one op's digest; a label must digest identically every time
  /// it runs in a process (passes, traced twins, serial twins).
  void digest(const std::string& label, const std::string& value) {
    const auto [it, fresh] = digests.emplace(label, value);
    if (!fresh && it->second != value)
      fail(label, "digest changed between identical calls (" + it->second +
                      " vs " + value + ")");
  }
};

/// Builds the workload's inputs and makes its warm-up call (each timed in
/// its layer), at least three times and up to 25 while under a second in
/// total; the median sample is setup_s. The warm-up starts the lazy worker
/// pools, a cost users pay once per process.
void timed_setup(Context& ctx, const char* build_layer,
                 const std::function<void()>& build,
                 const char* warmup_layer,
                 const std::function<void()>& warmup) {
  while (ctx.setup_s.size() < 3 ||
         (ctx.setup_s.size() < 25 && sum(ctx.setup_s) < 1.0)) {
    Timed t(ctx.tracer, "bench", "setup", ctx.tracer.new_op());
    {
      Timed b(ctx.tracer, build_layer, "build inputs");
      build();
    }
    {
      Timed w(ctx.tracer, warmup_layer, "warm-up");
      warmup();
    }
    ctx.setup_s.push_back(t.stop());
  }
}

// ---- Summary digests and invariants --------------------------------------

void put_series(snapshot::ByteWriter& w, const SeriesAccumulator& acc) {
  w.size(acc.length());
  w.size(acc.runs());
  for (std::size_t i = 0; i < acc.length(); ++i) acc.at(i).save_state(w);
}

std::string digest_of(const MappingSummary& s) {
  snapshot::ByteWriter w;
  w.scalar(s.runs);
  w.scalar(s.unfinished);
  s.finishing_time.save_state(w);
  put_series(w, s.knowledge);
  return digest_bytes(w.bytes());
}

std::string digest_of(const RoutingSummary& s) {
  snapshot::ByteWriter w;
  w.scalar(s.runs);
  s.mean_connectivity.save_state(w);
  s.window_stddev.save_state(w);
  put_series(w, s.connectivity);
  put_series(w, s.oracle);
  return digest_bytes(w.bytes());
}

std::string digest_of(const TrafficSummary& s) {
  snapshot::ByteWriter w;
  w.scalar(s.runs);
  s.traffic.save_state(w);
  s.mean_connectivity.save_state(w);
  s.delivery_ratio.save_state(w);
  s.offered_load.save_state(w);
  s.carried_load.save_state(w);
  return digest_bytes(w.bytes());
}

/// Connectivity can never beat the any-path oracle, at any step of any run.
std::vector<std::string> check_oracle_bound(const RoutingSummary& s) {
  std::vector<std::string> bad;
  if (s.oracle.length() != s.connectivity.length()) {
    bad.push_back("oracle series missing");
    return bad;
  }
  for (std::size_t t = 0; t < s.connectivity.length(); ++t)
    if (s.connectivity.at(t).max() > s.oracle.at(t).min()) {
      bad.push_back("connectivity above oracle at step " + std::to_string(t));
      break;
    }
  return bad;
}

bool conserved(const FlowTrafficStats& s) {
  return s.generated == s.delivered + s.dropped() + s.in_flight;
}

// ---- Replicated experiments ----------------------------------------------

/// One experiment call's result, reduced to what the benchmark checks and
/// counts.
struct Outcome {
  std::string digest;
  std::uint64_t steps = 0;        ///< Task steps, summed over runs.
  std::uint64_t agent_steps = 0;  ///< Agent x steps, summed over runs.
  std::vector<std::string> failures;
};

/// One configuration of a workload's roster.
struct Config {
  std::string label;
  std::function<Outcome(const ObsConfig&)> run;
};

/// Experiment-layer totals of a traced pass.
struct ExperimentTotals {
  obs::RunObs sink;
  int calls = 0;
  double wall_s = 0.0;
  double untraced_wall_s = 0.0;
  double cpu_s = 0.0;
  /// Wall x threads that execute runs (and so record phases).
  double phase_capacity_s = 0.0;
  /// Wall x every thread the call may keep busy.
  double cpu_capacity_s = 0.0;
  std::uint64_t agent_steps = 0;
};

void record_outcome(Context& ctx, const std::string& label,
                    const Outcome& outcome) {
  ++ctx.attempted;
  for (const auto& f : outcome.failures) ctx.fail(label, f);
  ctx.digest(label, outcome.digest);
}

/// End-to-end measurement: cycles the roster until `seconds` have passed
/// and at least one full pass is done; a configuration whose call is short
/// is called repeatedly on each visit, so a scheduling hiccup cannot set
/// its time. Each configuration's throughput is its simulated steps over
/// its median call time; steps_per_s is the geometric mean of those, so
/// every configuration weighs the same however long the seed makes its
/// runs. run_s, the wall time of one sweep, is reported alongside.
void measure_untraced(Context& ctx, const std::vector<Config>& roster) {
  const double min_visit_s = ctx.opt.smoke ? 0.0 : 0.25;
  constexpr int kMaxCallsPerVisit = 20;
  obs::RunObs sink;
  ObsConfig obs;
  obs.sink = &sink;
  std::vector<std::vector<double>> walls(roster.size());
  std::vector<std::uint64_t> steps(roster.size());
  const auto start = Clock::now();
  for (bool done = false; !done;) {
    for (std::size_t i = 0; i < roster.size() && !done; ++i) {
      double visit_s = 0.0;
      for (int call = 0; call < kMaxCallsPerVisit && visit_s <= min_visit_s;
           ++call) {
        Timed t(ctx.tracer, "experiments", roster[i].label,
                ctx.tracer.new_op());
        const Outcome outcome = roster[i].run(obs);
        const double wall = t.stop();
        record_outcome(ctx, roster[i].label, outcome);
        steps[i] = outcome.steps;
        walls[i].push_back(wall);
        visit_s += wall;
      }
      done = !walls.back().empty() &&
             seconds_between(start, Clock::now()) >= ctx.opt.seconds;
    }
  }
  double run_s = 0.0;
  double log_rate = 0.0;
  for (std::size_t i = 0; i < roster.size(); ++i) {
    const double m = median(walls[i]);
    run_s += m;
    log_rate += std::log(ratio(static_cast<double>(steps[i]), m));
    ctx.note("op." + roster[i].label + "_s", m, "s");
  }
  ctx.metric("steps_per_s",
             std::exp(log_rate / static_cast<double>(roster.size())));
  ctx.note("run_s", run_s, "s");
}

/// Per-layer pass: every configuration runs once plain and once with the
/// library's telemetry on (trace + metrics streams into the scratch
/// directory); record_outcome fails the twin unless it digests the same.
void measure_traced(Context& ctx, const std::vector<Config>& roster,
                    std::size_t phase_threads, std::size_t cpu_threads,
                    ExperimentTotals& totals) {
  obs::RunObs plain_sink;
  ObsConfig plain;
  plain.sink = &plain_sink;
  ObsConfig traced;
  traced.sink = &totals.sink;
  const auto trace_file = ctx.opt.scratch / "telemetry.trace.jsonl";
  const auto metrics_file = ctx.opt.scratch / "telemetry.metrics.jsonl";
  traced.trace_path = trace_file.string();
  traced.metrics_path = metrics_file.string();

  Timed pass(ctx.tracer, "bench", "pass", ctx.tracer.new_op());
  for (const Config& config : roster) {
    const int op = ctx.tracer.new_op();
    Timed u(ctx.tracer, "experiments", config.label + " untraced", op);
    const Outcome base = config.run(plain);
    totals.untraced_wall_s += u.stop();
    record_outcome(ctx, config.label, base);

    const double cpu0 = process_cpu_s();
    Timed t(ctx.tracer, "experiments", config.label + " traced", op);
    const Outcome twin = config.run(traced);
    const double wall = t.stop();
    totals.cpu_s += process_cpu_s() - cpu0;
    record_outcome(ctx, config.label, twin);

    Timed cleanup(ctx.tracer, "obs", "telemetry files", op);
    std::filesystem::remove(trace_file);
    std::filesystem::remove(metrics_file);
    cleanup.stop();

    ++totals.calls;
    totals.wall_s += wall;
    totals.phase_capacity_s += wall * static_cast<double>(phase_threads);
    totals.cpu_capacity_s += wall * static_cast<double>(cpu_threads);
    totals.agent_steps += twin.agent_steps;
  }
}

double phase_s(const obs::RunObs& obs, obs::Phase phase) {
  return static_cast<double>(obs.phases.ns(phase)) * 1e-9;
}

std::uint64_t counter(const obs::RunObs& obs, obs::Counter c) {
  return obs.counters.value(c);
}

/// World-upkeep counters, per advance() call.
void sim_counters(Context& ctx, const obs::RunObs& s) {
  using obs::Counter;
  const double advances =
      static_cast<double>(s.phases.calls(obs::Phase::kWorldAdvance));
  ctx.metric("sim.advance_calls", advances);
  ctx.metric("sim.rows_patched_per_step",
             ratio(counter(s, Counter::kTopoNodesDirty), advances));
  ctx.metric("sim.full_rebuilds", counter(s, Counter::kTopoFullRebuilds));
  ctx.metric("sim.tiles_dirty_per_step",
             ratio(counter(s, Counter::kShardTilesDirty), advances));
  ctx.metric("sim.halo_rows_per_step",
             ratio(counter(s, Counter::kShardHaloRows), advances));
}

/// Experiment-layer per-layer metrics from a traced pass. `top_level` lists
/// the phases that do not nest inside one another for this task kind.
void experiment_layers(Context& ctx, const ExperimentTotals& e,
                       const std::vector<obs::Phase>& top_level) {
  using obs::Counter;
  using obs::Phase;
  const obs::RunObs& s = e.sink;
  const auto share = [&](Phase p) {
    return 100.0 * ratio(phase_s(s, p), e.phase_capacity_s);
  };
  double covered = 0.0;
  for (Phase p : top_level) covered += share(p);
  ctx.metric("experiments.calls", e.calls);
  ctx.metric("experiments.cpu_util", ratio(e.cpu_s, e.cpu_capacity_s));
  ctx.metric("experiments.merge_share",
             100.0 * ratio(phase_s(s, Phase::kMerge), e.wall_s));
  ctx.metric("experiments.phase_coverage", covered);
  ctx.metric("core.sense_share", share(Phase::kSense));
  ctx.metric("core.exchange_share", share(Phase::kExchange));
  ctx.metric("core.exchange_plan_share", share(Phase::kExchangePlan));
  ctx.metric("core.decide_share", share(Phase::kDecide));
  ctx.metric("core.move_share", share(Phase::kMove));
  ctx.metric("core.commit_share", share(Phase::kCommit));
  ctx.metric("core.measure_share", share(Phase::kMeasure));
  ctx.metric("core.agent_hops", counter(s, Counter::kAgentHops));
  ctx.metric("core.meetings", counter(s, Counter::kAgentMeetings));
  ctx.metric("core.knowledge_merges", counter(s, Counter::kKnowledgeMerges));
  ctx.metric("core.route_updates", counter(s, Counter::kRouteTableUpdates));
  ctx.metric("core.agent_steps_per_s",
             ratio(static_cast<double>(e.agent_steps), e.wall_s));
  ctx.metric("common.agent_batches",
             counter(s, Counter::kAgentParallelBatches));
  sim_counters(ctx, s);
  ctx.metric("sim.advance_share", share(Phase::kWorldAdvance));
  ctx.metric("routing.cache_hit_ratio",
             ratio(counter(s, Counter::kDerivedCacheHits),
                   s.phases.calls(Phase::kMeasure)));
  ctx.metric("obs.traced_over_untraced",
             ratio(e.wall_s, e.untraced_wall_s));
}

/// Per-step timings of a world loop the benchmark owns.
struct LoopTimes {
  std::vector<double> advance_s;
  std::vector<double> oracle_s;
  std::uint64_t epoch_changes = 0;
  double bytes_per_node = 0.0;

  void metrics(Context& ctx) const {
    ctx.metric("sim.advances_per_s",
               ratio(static_cast<double>(advance_s.size()), sum(advance_s)));
    ctx.metric("sim.advance_tail_ratio",
               ratio(percentile(advance_s, 0.99), percentile(advance_s, 0.5)));
    ctx.metric("sim.epoch_change_ratio",
               ratio(static_cast<double>(epoch_changes),
                     static_cast<double>(advance_s.size())));
    ctx.metric("sim.bytes_per_node", bytes_per_node);
    ctx.metric("routing.oracles_per_s",
               ratio(static_cast<double>(oracle_s.size()), sum(oracle_s)));
  }
};

/// One timed advance(); counts steps whose edge set changed.
void timed_advance(Context& ctx, World& world, LoopTimes& times) {
  const std::uint64_t epoch = world.epoch();
  Timed t(ctx.tracer, "sim", "advance");
  world.advance();
  times.advance_s.push_back(t.stop());
  if (world.epoch() != epoch) ++times.epoch_changes;
}

ConnectivityResult timed_oracle(Context& ctx, const World& world,
                                const std::vector<bool>& is_gateway,
                                LoopTimes& times) {
  Timed t(ctx.tracer, "routing", "oracle");
  const ConnectivityResult r = oracle_connectivity(world.graph(), is_gateway);
  times.oracle_s.push_back(t.stop());
  return r;
}

/// Replays a scenario's world for its whole movement script, timing each
/// advance and oracle walk. The world does not depend on the agents, so
/// this is the same topology work the routing task does.
void world_probe(Context& ctx, const RoutingScenario& scenario,
                 std::size_t steps) {
  obs::RunObs sink;
  obs::ObsRunScope scope(sink);
  Timed probe(ctx.tracer, "bench", "world probe", ctx.tracer.new_op());
  Timed make(ctx.tracer, "sim", "make_world");
  World world = scenario.make_world();
  make.stop();
  LoopTimes times;
  for (std::size_t t = 0; t < steps; ++t) {
    timed_advance(ctx, world, times);
    timed_oracle(ctx, world, scenario.is_gateway(), times);
  }
  times.bytes_per_node = ratio(static_cast<double>(world.memory_bytes()),
                               static_cast<double>(world.node_count()));
  probe.stop();
  times.metrics(ctx);
}

/// Shared setup + measurement for the replicated workloads. `probes` runs
/// after a traced pass and measures the layers the experiment calls hide.
void run_replicated(
    Context& ctx, const char* input_layer, const std::function<void()>& build,
    const std::function<void(const ObsConfig&)>& warmup,
    const std::vector<Config>& roster, std::size_t phase_threads,
    std::size_t cpu_threads, const std::vector<obs::Phase>& top_level,
    const std::function<void(const ExperimentTotals&)>& probes) {
  obs::RunObs warm_sink;
  ObsConfig warm_obs;
  warm_obs.sink = &warm_sink;
  timed_setup(ctx, input_layer, build, "experiments",
              [&] { warmup(warm_obs); });
  if (!ctx.opt.trace) {
    measure_untraced(ctx, roster);
    return;
  }
  ExperimentTotals totals;
  measure_traced(ctx, roster, phase_threads, cpu_threads, totals);
  experiment_layers(ctx, totals, top_level);
  probes(totals);
}

// ---- Workloads ------------------------------------------------------------

int paper_runs(const Context& ctx) {
  return ctx.opt.smoke ? 2 : paper::kPaperRuns;
}

/// Figs 1-6 protocol on the static paper network.
void mapping_paper(Context& ctx) {
  GeneratedNetwork net;
  const int runs = paper_runs(ctx);
  const int threads = static_cast<int>(ctx.opt.threads);
  const auto call = [&](MappingPolicy policy, StigmergyMode stig, int pop,
                        int call_runs, const ObsConfig& obs) {
    MappingTaskConfig task;
    task.population = pop;
    task.agent = {policy, stig};
    task.agent_parallel = AgentParallelConfig{};
    const MappingSummary s = run_mapping_experiment(
        net, task, call_runs, ctx.run_seed_base, threads, obs, FaultPlan{});
    Outcome o;
    o.digest = digest_of(s);
    const double finished = s.finishing_time.empty()
                                ? 0.0
                                : s.finishing_time.mean() *
                                      static_cast<double>(
                                          s.finishing_time.count());
    o.steps = static_cast<std::uint64_t>(std::llround(finished)) +
              static_cast<std::uint64_t>(s.unfinished) * task.max_steps;
    o.agent_steps = o.steps * static_cast<std::uint64_t>(pop);
    if (s.unfinished > 0)
      o.failures.push_back(std::to_string(s.unfinished) + " runs unfinished");
    else if (s.knowledge.length() == 0 ||
             s.knowledge.at(s.knowledge.length() - 1).min() != 1.0)
      o.failures.push_back("finished run without full knowledge");
    return o;
  };
  std::vector<Config> roster;
  for (const MappingPolicy policy :
       {MappingPolicy::kConscientious, MappingPolicy::kSuperConscientious})
    for (const StigmergyMode stig :
         {StigmergyMode::kOff, StigmergyMode::kFilterFirst})
      for (const int pop : {1, 5, 15, 50, 100}) {
        const std::string label =
            std::string(policy == MappingPolicy::kConscientious ? "consc"
                                                                 : "super") +
            (stig == StigmergyMode::kOff ? "-off" : "-filter") + "-p" +
            std::to_string(pop);
        roster.push_back({label, [=, &call](const ObsConfig& obs) {
                            return call(policy, stig, pop, runs, obs);
                          }});
      }
  run_replicated(
      ctx, "net",
      [&] { net = paper_mapping_network(paper::kMappingNetworkSeed); },
      [&](const ObsConfig& obs) {
        call(MappingPolicy::kConscientious, StigmergyMode::kOff, 1, 1, obs);
      },
      roster, ctx.opt.threads, ctx.opt.threads,
      {obs::Phase::kSetup, obs::Phase::kStep}, [](const ExperimentTotals&) {});
}

RoutingTaskConfig paper_routing_task() {
  RoutingTaskConfig task;
  task.steps = paper::kRoutingSteps;
  task.measure_from = paper::kRoutingMeasureFrom;
  task.agent.history_size = 10;
  task.record_oracle = true;
  task.agent_parallel = AgentParallelConfig{};
  return task;
}

Outcome routing_outcome(const RoutingSummary& s, const RoutingTaskConfig& t) {
  Outcome o;
  o.digest = digest_of(s);
  o.steps = static_cast<std::uint64_t>(s.runs) * t.steps;
  o.agent_steps = o.steps * static_cast<std::uint64_t>(t.population);
  o.failures = check_oracle_bound(s);
  return o;
}

/// Figs 7-11 protocol on the 250-node / 12-gateway mobile scenario.
void routing_paper(Context& ctx) {
  std::optional<RoutingScenario> scenario;
  const int runs = paper_runs(ctx);
  const int threads = static_cast<int>(ctx.opt.threads);
  std::vector<Config> roster;
  for (const RoutingPolicy policy :
       {RoutingPolicy::kRandom, RoutingPolicy::kOldestNode})
    for (const bool visit : {false, true})
      for (const int pop : {25, 100, 250}) {
        RoutingTaskConfig task = paper_routing_task();
        task.population = pop;
        task.agent.policy = policy;
        task.agent.communicate = visit;
        const std::string label =
            std::string(policy == RoutingPolicy::kRandom ? "random"
                                                         : "oldest") +
            (visit ? "-visit" : "-solo") + "-p" + std::to_string(pop);
        roster.push_back({label, [&, task](const ObsConfig& obs) {
                            return routing_outcome(
                                run_routing_experiment(*scenario, task, runs,
                                                       ctx.run_seed_base,
                                                       threads, obs,
                                                       FaultPlan{}),
                                task);
                          }});
      }
  run_replicated(
      ctx, "core",
      [&] {
        scenario.emplace(RoutingScenarioParams{}, paper::kRoutingScenarioSeed);
      },
      [&](const ObsConfig& obs) {
        RoutingTaskConfig task = paper_routing_task();
        task.population = 25;
        task.agent.policy = RoutingPolicy::kRandom;
        run_routing_experiment(*scenario, task, 1, ctx.run_seed_base,
                               threads, obs, FaultPlan{});
      },
      roster, ctx.opt.threads, ctx.opt.threads,
      {obs::Phase::kSetup, obs::Phase::kStep, obs::Phase::kSummarize},
      [&](const ExperimentTotals&) {
        world_probe(ctx, *scenario, paper::kRoutingSteps);
      });
}

TrafficTaskConfig traffic_task(double load, bool delay_balance) {
  TrafficTaskConfig task;
  task.steps = paper::kRoutingSteps;
  task.measure_from = paper::kRoutingMeasureFrom;
  task.workload.offered_load = load;
  task.ants.reinforcement =
      delay_balance ? AntReinforcement::kDelay : AntReinforcement::kHopCount;
  task.balance_gateways = delay_balance;
  task.agent_parallel = AgentParallelConfig{};
  return task;
}

/// The run_traffic_task loop rebuilt from public calls, with each plane
/// timed separately. Its stats and connectivity must equal the task's.
struct ReplicaTimes {
  LoopTimes world;
  double loop_s = 0.0;
  double ants_s = 0.0;
  double snapshot_s = 0.0;
  double traffic_s = 0.0;
  std::uint64_t ant_hops = 0;
  std::uint64_t packets = 0;
};

void traffic_replica(Context& ctx, const RoutingScenario& scenario,
                     const TrafficTaskConfig& config,
                     const std::string& label, ReplicaTimes& times) {
  const std::vector<bool>& gw = scenario.is_gateway();
  obs::RunObs sink;
  obs::ObsRunScope scope(sink);
  const int op = ctx.tracer.new_op();
  Timed loop(ctx.tracer, "bench", label + " replica", op);
  Timed make(ctx.tracer, "sim", "make_world");
  World world = scenario.make_world();
  make.stop();
  Rng rng(ctx.run_seed_base);
  Rng traffic_stream = rng.fork(0xF10A);
  AntRoutingSystem ants(world.node_count(), gw, config.ants, rng);
  FlowTrafficSimulator traffic(world.node_count(), gw, config.workload,
                               config.queue, traffic_stream);
  const AgentParallel par(config.agent_parallel);
  ants.set_parallel(par);
  traffic.set_parallel(par);
  GatewayBalancer balancer(world.node_count(), gw, config.balancer);
  ConnectivityCache conn_cache;
  RunningStats window;
  bool above_oracle = false;
  for (std::size_t t = 0; t < config.steps; ++t) {
    const Graph& live = world.graph();
    {
      Timed s(ctx.tracer, "aco", "ants.step");
      ants.step(live, t, traffic.hop_delays(),
                config.balance_gateways
                    ? std::span<const double>(balancer.bias())
                    : std::span<const double>{});
      times.ants_s += s.stop();
    }
    Timed snap(ctx.tracer, "aco", "snapshot_tables");
    const RoutingTables tables = ants.snapshot_tables(t);
    times.snapshot_s += snap.stop();
    {
      Timed s(ctx.tracer, "traffic", "traffic.step");
      if (t == config.measure_from) traffic.reset_stats();
      traffic.step(live, tables, t);
      times.traffic_s += s.stop();
    }
    if (config.balance_gateways) {
      Timed s(ctx.tracer, "routing", "balancer.observe");
      balancer.observe(traffic.gateway_deliveries());
    }
    if (t >= config.measure_from) {
      double fraction = 0.0;
      {
        Timed s(ctx.tracer, "routing", "measure");
        fraction = conn_cache.measure(world, tables, gw, 0, par).fraction();
      }
      window.add(fraction);
      if (fraction > timed_oracle(ctx, world, gw, times.world).fraction())
        above_oracle = true;
    }
    timed_advance(ctx, world, times.world);
  }
  traffic.finish();
  times.world.bytes_per_node =
      ratio(static_cast<double>(world.memory_bytes()),
            static_cast<double>(world.node_count()));
  times.loop_s += loop.stop();
  times.ant_hops += ants.ant_hops();
  times.packets += counter(sink, obs::Counter::kPacketsGenerated);

  Timed reference(ctx.tracer, "experiments", label + " run_traffic_task", op);
  const TrafficTaskResult task =
      run_traffic_task(scenario, config, Rng(ctx.run_seed_base));
  reference.stop();
  ++ctx.attempted;
  if (!(task.traffic == traffic.stats()) ||
      std::bit_cast<std::uint64_t>(task.mean_connectivity) !=
          std::bit_cast<std::uint64_t>(window.mean()))
    ctx.fail(label, "replica differs from run_traffic_task");
  if (!conserved(traffic.stats())) ctx.fail(label, "replica lost packets");
  if (above_oracle) ctx.fail(label, "replica connectivity above oracle");
}

/// extC on the routing scenario: ant routing plus the flow data plane.
void traffic_loaded(Context& ctx) {
  std::optional<RoutingScenario> scenario;
  const int runs = paper_runs(ctx);
  const int threads = static_cast<int>(ctx.opt.threads);
  const double loads[] = {0.1, 0.4, 0.8};
  const auto call = [&](const TrafficTaskConfig& task, int call_runs,
                        const ObsConfig& obs) {
    const TrafficSummary s =
        run_traffic_experiment(*scenario, task, call_runs, ctx.run_seed_base,
                               threads, obs, FaultPlan{});
    Outcome o;
    o.digest = digest_of(s);
    o.steps = static_cast<std::uint64_t>(s.runs) * task.steps;
    if (!conserved(s.traffic)) o.failures.push_back("packets not conserved");
    if (!(s.mean_connectivity.min() >= 0.0 &&
          s.mean_connectivity.max() <= 1.0))
      o.failures.push_back("connectivity outside [0, 1]");
    return o;
  };
  std::vector<Config> roster;
  for (const bool delay_balance : {false, true})
    for (const double load : loads) {
      char label[48];
      std::snprintf(label, sizeof(label), "%s-l%.1f",
                    delay_balance ? "delay+balance" : "hop", load);
      const TrafficTaskConfig task = traffic_task(load, delay_balance);
      roster.push_back({label, [=, &call](const ObsConfig& obs) {
                          return call(task, runs, obs);
                        }});
    }
  run_replicated(
      ctx, "core",
      [&] {
        scenario.emplace(RoutingScenarioParams{}, paper::kRoutingScenarioSeed);
      },
      [&](const ObsConfig& obs) {
        call(traffic_task(loads[0], false), 1, obs);
      },
      roster,
      ctx.opt.threads, ctx.opt.threads,
      {obs::Phase::kSetup, obs::Phase::kStep, obs::Phase::kMeasure,
       obs::Phase::kWorldAdvance, obs::Phase::kSummarize},
      [&](const ExperimentTotals&) {
        ReplicaTimes times;
        for (const double load : loads) {
          char label[48];
          std::snprintf(label, sizeof(label), "delay+balance-l%.1f", load);
          traffic_replica(ctx, *scenario, traffic_task(load, true), label,
                          times);
        }
        times.world.metrics(ctx);
        ctx.metric("aco.step_share", 100.0 * ratio(times.ants_s, times.loop_s));
        ctx.metric("aco.snapshot_share",
                   100.0 * ratio(times.snapshot_s, times.loop_s));
        ctx.metric("aco.ant_hops", static_cast<double>(times.ant_hops));
        ctx.metric("traffic.step_share",
                   100.0 * ratio(times.traffic_s, times.loop_s));
        ctx.metric("traffic.packets", static_cast<double>(times.packets));
        ctx.metric("traffic.packets_per_s",
                   ratio(static_cast<double>(times.packets), times.traffic_s));
      });
}

/// One routing run on a city-sized scenario: paper density, gateways and
/// agents scaled per 250 nodes, visiting on, the intra-run agent engine at
/// T threads.
void city_agents(Context& ctx) {
  const std::size_t n = ctx.opt.smoke ? 2'000 : 20'000;
  const double scale = std::sqrt(static_cast<double>(n) / 250.0);
  RoutingScenarioParams params;
  params.node_count = n;
  params.gateway_count = n * 12 / 250;
  params.bounds = {{0.0, 0.0}, {1000.0 * scale, 1000.0 * scale}};
  std::optional<RoutingScenario> scenario;

  RoutingTaskConfig task = paper_routing_task();
  task.population = static_cast<int>(n * 100 / 250);
  task.agent.policy = RoutingPolicy::kOldestNode;
  task.agent.communicate = true;
  task.agent_parallel.threads = ctx.opt.threads;
  const std::string label = "city-n" + std::to_string(n);
  const auto call = [&](const RoutingTaskConfig& t, const ObsConfig& obs) {
    return routing_outcome(run_routing_experiment(*scenario, t, 1,
                                                  ctx.run_seed_base, 1, obs,
                                                  FaultPlan{}),
                           t);
  };
  const std::vector<Config> roster{
      {label, [&](const ObsConfig& obs) { return call(task, obs); }}};
  run_replicated(
      ctx, "core", [&] { scenario.emplace(params, ctx.opt.seed); },
      [&](const ObsConfig& obs) {
        // Two steps start the shared agent pool; a full run would double
        // the set-up cost for nothing.
        RoutingTaskConfig warm = task;
        warm.steps = 2;
        warm.measure_from = 1;
        call(warm, obs);
      },
      roster, 1, ctx.opt.threads,
      {obs::Phase::kSetup, obs::Phase::kStep, obs::Phase::kSummarize},
      [&](const ExperimentTotals& totals) {
        // Serial twin: the same run with the agent engine at one thread,
        // against the pass's untraced T-thread call. Its digest must match.
        obs::RunObs sink;
        ObsConfig obs;
        obs.sink = &sink;
        RoutingTaskConfig serial = task;
        serial.agent_parallel.threads = 1;
        Timed t(ctx.tracer, "experiments", label + " agent threads 1",
                ctx.tracer.new_op());
        record_outcome(ctx, label, call(serial, obs));
        ctx.metric("common.agent_engine_speedup",
                   ratio(t.stop(), totals.untraced_wall_s));
        world_probe(ctx, *scenario, paper::kRoutingSteps);
      });
}

/// extR's million-node field: a static mains-powered sensor field with a
/// clustered 0.1% battery-powered convoy, no agents.
World make_field(std::size_t n, std::uint64_t seed, std::size_t threads) {
  Rng rng(seed);
  const double side = 1000.0 * std::sqrt(static_cast<double>(n) / 250.0);
  const Aabb bounds{{0.0, 0.0}, {side, side}};
  std::vector<Vec2> positions = random_positions(n, bounds, rng);
  std::vector<double> ranges =
      heterogeneous_ranges(n, 110.0 * 0.85, 110.0 * 1.15, rng);
  const std::size_t movers = std::max<std::size_t>(16, n / 1000);
  std::vector<bool> mobile(n, false);
  for (std::size_t i = 0; i < movers; ++i) {
    mobile[i] = true;
    positions[i] = {rng.uniform_real(0.0, side / 8.0),
                    rng.uniform_real(0.0, side / 8.0)};
  }
  auto mobility = std::make_unique<RandomDirectionMobility>(
      bounds, mobile, RandomDirectionMobility::Params{0.5, 3.0, 0.05},
      rng.fork(0x30B));
  World world(bounds, std::move(positions),
              RadioModel(std::move(ranges), RangeScaling{0.6}),
              BatteryBank(n, mobile, BatteryParams{1.0, 0.001}),
              std::move(mobility), LinkPolicy::kSymmetricAnd);
  world.set_shard_threads(threads);
  return world;
}

void field_1m(Context& ctx) {
  const std::size_t n = ctx.opt.smoke ? 10'000 : 1'000'000;
  constexpr std::size_t kBlock = 250;     // advance steps per oracle walk
  constexpr std::size_t kSteps = 1000;    // minimum loop length
  constexpr std::size_t kSaveAt = 500;    // checkpoint step (after warm-up)
  constexpr int kRoundTrips = 3;
  const std::string label = "field-n" + std::to_string(n);
  std::vector<bool> is_gateway(n, false);  // paper ratio, ≈12 per 250
  for (std::size_t i = 0; i < n; i += 21) is_gateway[i] = true;

  std::unique_ptr<World> world;
  timed_setup(
      ctx, "sim",
      [&] {
        world.reset();
        world = std::make_unique<World>(
            make_field(n, ctx.opt.seed, ctx.opt.threads));
      },
      "sim", [&] { world->advance(); });

  obs::RunObs sink;
  obs::ObsRunScope scope(sink);
  const auto ckpt = (ctx.opt.scratch / "field.ckpt").string();
  snapshot::ByteWriter digest;
  std::vector<std::uint8_t> saved;
  std::vector<double> save_s;
  std::vector<double> restore_s;
  const auto save = [&] {
    Timed t(ctx.tracer, "snapshot", "checkpoint save");
    snapshot::ByteWriter w;
    world->save_state(w);
    snapshot::Checkpoint cp;
    cp.identity = {"field", 1, ctx.opt.seed, n, kSteps};
    cp.runs[0] = {world->step(), w.take()};
    snapshot::save_checkpoint(cp, ckpt);
    save_s.push_back(t.stop());
    if (saved.empty()) saved = std::move(cp.runs[0].payload);
  };

  LoopTimes times;
  std::vector<double> traced_s;
  std::vector<double> plain_s;
  const auto start = Clock::now();
  Timed loop(ctx.tracer, "bench", "field loop", ctx.tracer.new_op());
  for (std::size_t block = 0;; ++block) {
    // Traced runs record per-step spans on odd blocks only and cover even
    // blocks with one coarse span: the paired blocks price the spans.
    const bool record = ctx.opt.trace && block % 2 == 1;
    Timed b(ctx.tracer, "bench", "advance block", ctx.tracer.new_op());
    const std::size_t first = times.advance_s.size();
    {
      Timed coarse(ctx.tracer, record ? "bench" : "sim", "advances");
      if (ctx.opt.trace) ctx.tracer.set_recording(record);
      for (std::size_t i = 0; i < kBlock; ++i) {
        timed_advance(ctx, *world, times);
        if (world->step() == kSaveAt) save();
      }
      if (ctx.opt.trace) ctx.tracer.set_recording(true);
    }
    const ConnectivityResult oracle =
        timed_oracle(ctx, *world, is_gateway, times);
    b.stop();
    ctx.attempted += 2;  // the advance block and its oracle walk
    (record ? traced_s : plain_s)
        .push_back(std::accumulate(times.advance_s.begin() + first,
                                   times.advance_s.end(), 0.0));
    if (block < kSteps / kBlock) {
      digest.size(oracle.connected);
      digest.size(oracle.total);
    }
    if (block + 1 >= kSteps / kBlock &&
        seconds_between(start, Clock::now()) >= ctx.opt.seconds)
      break;
  }
  loop.stop();
  for (int trip = 0; trip < kRoundTrips; ++trip) {
    if (trip > 0) save();
    Timed t(ctx.tracer, "snapshot", "checkpoint restore");
    const snapshot::Checkpoint cp = snapshot::load_checkpoint(ckpt);
    snapshot::ByteReader reader(cp.runs.at(0).payload);
    world->load_state(reader);
    restore_s.push_back(t.stop());
    Timed verify(ctx.tracer, "snapshot", "re-serialize");
    snapshot::ByteWriter again;
    world->save_state(again);
    ++ctx.attempted;
    if (again.bytes() != saved)
      ctx.fail(label, "restored world does not re-serialize to saved bytes");
  }
  {
    Timed t(ctx.tracer, "snapshot", "digest");
    std::filesystem::remove(ckpt);
    digest.blob(saved);
    ctx.digest(label, digest_bytes(digest.bytes()));
  }

  const double oracle_med = median(times.oracle_s);
  const double save_med = median(save_s);
  const double restore_med = median(restore_s);
  if (!ctx.opt.trace) {
    // The median block keeps a burst of host noise out of the rate while
    // each block's mean still carries the step-time tail.
    const double block_med = median(plain_s);
    ctx.metric("steps_per_s", ratio(static_cast<double>(kBlock), block_med));
    ctx.note("run_s", (block_med + oracle_med) * (kSteps / kBlock) +
                          save_med + restore_med,
             "s");
    ctx.note("step_p50_ms", 1e3 * percentile(times.advance_s, 0.5), "ms");
    ctx.note("step_p99_ms", 1e3 * percentile(times.advance_s, 0.99), "ms");
    ctx.note("step_samples", static_cast<double>(times.advance_s.size()),
             "count");
    ctx.note("oracle_s", oracle_med, "s");
    ctx.note("checkpoint_save_s", save_med, "s");
    ctx.note("checkpoint_restore_s", restore_med, "s");
    ctx.note("checkpoint_mb", static_cast<double>(saved.size()) / 1e6, "MB");
    return;
  }
  times.bytes_per_node = ratio(static_cast<double>(world->memory_bytes()),
                               static_cast<double>(n));
  times.metrics(ctx);
  sim_counters(ctx, sink);
  ctx.metric("sim.advance_share",
             100.0 * ratio(sum(times.advance_s),
                           seconds_between(start, Clock::now())));
  const double mb = static_cast<double>(saved.size()) / 1e6;
  ctx.metric("snapshot.save_MBps", ratio(mb, save_med));
  ctx.metric("snapshot.load_MBps", ratio(mb, restore_med));
  ctx.metric("snapshot.bytes", static_cast<double>(saved.size()));
  ctx.metric("obs.traced_over_untraced",
             ratio(median(traced_s), median(plain_s)));
}

// ---- Artefacts and output -------------------------------------------------

/// Self time per layer: each span's duration minus what its children
/// cover. The layers' self times add up to the traced run's wall time.
std::map<std::string, double> self_times(
    const std::vector<Tracer::Span>& spans) {
  std::vector<double> child_us(spans.size(), 0.0);
  for (const auto& s : spans)
    if (s.parent >= 0) child_us[static_cast<std::size_t>(s.parent)] += s.dur_us;
  std::map<std::string, double> table;
  for (std::size_t i = 0; i < spans.size(); ++i)
    table[spans[i].layer] += (spans[i].dur_us - child_us[i]) * 1e-6;
  return table;
}

/// Wall time covered by the root spans.
double traced_wall_s(const std::vector<Tracer::Span>& spans) {
  double total = 0.0;
  for (const auto& s : spans)
    if (s.parent < 0) total += s.dur_us * 1e-6;
  return total;
}

/// Benchmark time covered by no layer span: the self time of the benchmark's
/// own structural ("bench") spans, as a share of the traced run.
double unattributed_share(const std::vector<Tracer::Span>& spans) {
  const auto table = self_times(spans);
  const auto it = table.find("bench");
  return 100.0 * ratio(it == table.end() ? 0.0 : it->second,
                       traced_wall_s(spans));
}

void write_artefacts(const Context& ctx) {
  const auto& spans = ctx.tracer.spans();
  std::filesystem::create_directories(ctx.opt.artefacts);
  std::ofstream trace(ctx.opt.artefacts / (ctx.opt.workload + ".trace.json"));
  trace << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    trace << (i ? ",\n" : "") << "{\"name\":" << json_quote(s.name)
          << ",\"cat\":" << json_quote(s.layer)
          << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << json_num(s.start_us)
          << ",\"dur\":" << json_num(s.dur_us) << ",\"args\":{\"id\":" << i
          << ",\"parent\":" << s.parent << ",\"op\":" << s.op << "}}";
  }
  trace << "\n]}\n";
  std::ofstream table(ctx.opt.artefacts /
                      (ctx.opt.workload + ".selftime.txt"));
  const double wall = traced_wall_s(spans);
  table << "layer          self_s   self_%\n";
  for (const auto& [layer, self] : self_times(spans)) {
    char line[96];
    std::snprintf(line, sizeof(line), "%-12s %9.4f %8.2f\n", layer.c_str(),
                  self, 100.0 * ratio(self, wall));
    table << line;
  }
  if (!trace || !table)
    throw std::runtime_error("cannot write artefacts under " +
                             ctx.opt.artefacts.string());
}

void print_result(Context& ctx) {
  std::ostringstream os;
  os << "{\"workload\":" << json_quote(ctx.opt.workload)
     << ",\"seed\":" << ctx.opt.seed
     << ",\"run_seed_base\":" << ctx.run_seed_base
     << ",\"cmake_build_type\":" << json_quote(BENCH_BUILD_TYPE)
     << ",\"obs_level\":" << AGENTNET_OBS_LEVEL
     << ",\"attempted\":" << ctx.attempted << ",\"failures\":[";
  for (std::size_t i = 0; i < ctx.failures.size(); ++i)
    os << (i ? "," : "") << json_quote(ctx.failures[i]);
  os << "],\"digests\":{";
  bool first = true;
  for (const auto& [label, d] : ctx.digests) {
    os << (first ? "" : ",") << json_quote(label) << ":" << json_quote(d);
    first = false;
  }
  os << "},\"metrics\":{";
  for (std::size_t i = 0; i < ctx.metrics.size(); ++i)
    os << (i ? "," : "") << json_quote(ctx.metrics[i].first) << ":"
       << json_num(ctx.metrics[i].second);
  os << "},\"info\":{";
  for (std::size_t i = 0; i < ctx.info.size(); ++i)
    os << (i ? "," : "") << json_quote(ctx.info[i].first) << ":["
       << json_num(ctx.info[i].second.first) << ","
       << json_quote(ctx.info[i].second.second) << "]";
  os << "},\"self_time\":{";
  first = true;
  for (const auto& [layer, self] : self_times(ctx.tracer.spans())) {
    os << (first ? "" : ",") << json_quote(layer) << ":" << json_num(self);
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

int run(Options opt) {
  std::filesystem::create_directories(opt.scratch);
  Context ctx(std::move(opt));
  const std::map<std::string, void (*)(Context&)> workloads{
      {"mapping_paper", mapping_paper}, {"routing_paper", routing_paper},
      {"traffic_loaded", traffic_loaded}, {"city_agents", city_agents},
      {"field_1m", field_1m}};
  const auto it = workloads.find(ctx.opt.workload);
  if (it == workloads.end()) {
    std::cerr << "agentnet_bench: unknown workload " << ctx.opt.workload
              << "\n";
    return 2;
  }
  {
    Timed root(ctx.tracer, "bench", ctx.opt.workload, ctx.tracer.new_op());
    it->second(ctx);
  }
  if (ctx.opt.trace) {
    const double unattributed = unattributed_share(ctx.tracer.spans());
    ctx.metric("obs.unattributed_share", unattributed);
    if (unattributed > 5.0)
      ctx.fail(ctx.opt.workload, "unattributed benchmark time above 5%");
    write_artefacts(ctx);
  } else {
    ctx.metric("setup_s", median(ctx.setup_s));
    ctx.metric("peak_rss_mb", peak_rss_mb());
  }
  print_result(ctx);
  return 0;
}

}  // namespace
}  // namespace agentnet::bench

int main(int argc, char** argv) {
  agentnet::bench::Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") opt.workload = value();
      else if (arg == "--seed") opt.seed = std::stoull(value());
      else if (arg == "--seconds") opt.seconds = std::stod(value());
      else if (arg == "--trace") opt.trace = std::stoi(value()) != 0;
      else if (arg == "--smoke") opt.smoke = true;
      else if (arg == "--threads") opt.threads = std::stoul(value());
      else if (arg == "--scratch") opt.scratch = value();
      else if (arg == "--artefacts") opt.artefacts = value();
      else throw std::invalid_argument("unknown argument " + arg);
    }
    if (opt.workload.empty() || opt.scratch.empty() || opt.threads == 0)
      throw std::invalid_argument(
          "need --workload, --scratch and --threads >= 1");
    if (opt.trace && opt.artefacts.empty())
      throw std::invalid_argument("--trace 1 needs --artefacts");
    return agentnet::bench::run(std::move(opt));
  } catch (const std::exception& e) {
    std::cerr << "agentnet_bench: " << e.what() << "\n";
    return 2;
  }
}
