// Resume determinism (docs/ROBUSTNESS.md): run k steps, checkpoint,
// restore, continue — the final artefacts (trace JSONL, metrics JSONL)
// must be byte-identical to the uninterrupted run, at any thread count,
// for every task family, under fault injection. Checkpoint bookkeeping is
// outside the deterministic surface: checkpoint_* trace events are
// filtered before comparison (the documented `grep -v checkpoint_`
// contract) and checkpoint counters are already excluded from metrics
// deltas and counter footers.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "aco/ant_routing_task.hpp"
#include "adv/dv_agent.hpp"
#include "experiments/mapping_experiments.hpp"
#include "experiments/replicate.hpp"
#include "experiments/routing_experiments.hpp"
#include "experiments/traffic_experiments.hpp"
#include "net/generators.hpp"
#include "obs/obs.hpp"
#include "snapshot/snapshot.hpp"

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

/// Drops checkpoint_saved / checkpoint_restored lines — the only trace
/// difference a checkpointing or resumed run is allowed to have.
std::string without_checkpoint_lines(const std::string& text) {
  std::istringstream is(text);
  std::string out, line;
  while (std::getline(is, line))
    if (line.find("checkpoint_") == std::string::npos) out += line + "\n";
  return out;
}

class EnvGuard {
 public:
  EnvGuard(const char* name, const std::string& value) : name_(name) {
    ::setenv(name, value.c_str(), 1);
  }
  ~EnvGuard() { ::unsetenv(name_); }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  const char* name_;
};

struct Artefacts {
  std::string trace;
  std::string metrics;
};

/// Runs `experiment` with trace + metrics wired to fresh files named by
/// `tag` and returns their contents (trace filtered of checkpoint events).
template <typename Fn>
Artefacts run_leg(const std::string& tag, const Fn& experiment) {
  obs::ObsConfig config;
  config.trace_path = temp_path(tag + ".trace.jsonl");
  config.metrics_path = temp_path(tag + ".metrics.jsonl");
  experiment(config);
  return {without_checkpoint_lines(read_file(*config.trace_path)),
          read_file(*config.metrics_path)};
}

FaultPlan chaos_plan() {
  FaultPlan plan;
  plan.node_crash_probability = 0.04;
  plan.crash_persistence = 5;
  plan.burst_drop_probability = 0.05;
  plan.agent_loss_probability = 0.02;
  plan.gateway_respawn_probability = 0.05;
  plan.watchdog_ttl = 20;
  return plan;
}

RoutingScenario tiny_scenario() {
  RoutingScenarioParams params;
  params.node_count = 50;
  params.gateway_count = 4;
  params.bounds = {{0.0, 0.0}, {350.0, 350.0}};
  params.trace_steps = 70;
  return RoutingScenario(params, 17);
}

#if AGENTNET_OBS_LEVEL >= 1

TEST(SnapshotResumeTest, RoutingResumeByteIdenticalAtEveryThreadCount) {
  const RoutingScenario scenario = tiny_scenario();
  RoutingTaskConfig task;
  task.population = 12;
  task.steps = 60;
  task.measure_from = 30;
  task.faults = chaos_plan();
  const int runs = 3;
  const std::uint64_t seed = 4242;
  const auto leg = [&](const std::string& tag, int threads) {
    return run_leg(tag, [&](const obs::ObsConfig& config) {
      run_routing_experiment(scenario, task, runs, seed, threads, config);
    });
  };

  const Artefacts base = leg("rt_base", 1);
  const std::string ck = temp_path("rt.snap");
  {
    EnvGuard save("AGENTNET_CHECKPOINT", ck);
    EnvGuard every("AGENTNET_CHECKPOINT_EVERY", "20");
    const Artefacts saving = leg("rt_save", 2);
    EXPECT_EQ(saving.trace, base.trace)
        << "checkpointing must not perturb the run";
    EXPECT_EQ(saving.metrics, base.metrics);
  }
  std::ifstream snap(ck);
  ASSERT_TRUE(snap.is_open()) << "autosave produced no checkpoint";
  for (const int threads : {1, 2, 7}) {
    EnvGuard resume("AGENTNET_RESUME", ck);
    const Artefacts resumed =
        leg("rt_resume_t" + std::to_string(threads), threads);
    EXPECT_EQ(resumed.trace, base.trace) << "threads=" << threads;
    EXPECT_EQ(resumed.metrics, base.metrics) << "threads=" << threads;
  }
}

TEST(SnapshotResumeTest, MappingResumeByteIdentical) {
  TargetEdgeParams params;
  params.geometry.node_count = 40;
  params.target_edges = 240;
  params.tolerance = 0.05;
  const GeneratedNetwork network = generate_target_edge_network(params, 5);
  MappingTaskConfig task;
  task.population = 8;
  task.max_steps = 120;
  task.faults = chaos_plan();
  const int runs = 2;
  const std::uint64_t seed = 99;
  const auto leg = [&](const std::string& tag, int threads) {
    return run_leg(tag, [&](const obs::ObsConfig& config) {
      run_mapping_experiment(network, task, runs, seed, threads, config);
    });
  };

  const Artefacts base = leg("mp_base", 1);
  const std::string ck = temp_path("mp.snap");
  {
    EnvGuard save("AGENTNET_CHECKPOINT", ck);
    EnvGuard every("AGENTNET_CHECKPOINT_EVERY", "40");
    const Artefacts saving = leg("mp_save", 2);
    EXPECT_EQ(saving.trace, base.trace);
    EXPECT_EQ(saving.metrics, base.metrics);
  }
  for (const int threads : {1, 2, 7}) {
    EnvGuard resume("AGENTNET_RESUME", ck);
    const Artefacts resumed =
        leg("mp_resume_t" + std::to_string(threads), threads);
    EXPECT_EQ(resumed.trace, base.trace) << "threads=" << threads;
    EXPECT_EQ(resumed.metrics, base.metrics) << "threads=" << threads;
  }
}

TEST(SnapshotResumeTest, MappingResumeWithKnowledgeExpiryByteIdentical) {
  // Hearsay expiry on: meetings also merge into the current expiry epoch,
  // rotations rebuild the full map, and a restored store recounts its
  // visited nodes on load. Checkpoints every 35 steps fall mid-epoch
  // (ttl 15) and before both runs finish (steps 61 and 75).
  TargetEdgeParams params;
  params.geometry.node_count = 40;
  params.target_edges = 240;
  params.tolerance = 0.05;
  const GeneratedNetwork network = generate_target_edge_network(params, 5);
  MappingTaskConfig task;
  task.population = 10;
  task.max_steps = 120;
  task.faults = chaos_plan();
  task.faults.knowledge_ttl = 15;
  const int runs = 2;
  const std::uint64_t seed = 123;
  const auto leg = [&](const std::string& tag, int threads) {
    return run_leg(tag, [&](const obs::ObsConfig& config) {
      run_mapping_experiment(network, task, runs, seed, threads, config);
    });
  };

  const Artefacts base = leg("mx_base", 1);
  ASSERT_NE(base.trace.find("\"merge\""), std::string::npos)
      << "no meeting happened; the leg would not cover the exchange";
  const std::string ck = temp_path("mx.snap");
  {
    EnvGuard save("AGENTNET_CHECKPOINT", ck);
    EnvGuard every("AGENTNET_CHECKPOINT_EVERY", "35");
    const Artefacts saving = leg("mx_save", 2);
    EXPECT_EQ(saving.trace, base.trace);
    EXPECT_EQ(saving.metrics, base.metrics);
  }
  for (const int threads : {1, 2, 7}) {
    EnvGuard resume("AGENTNET_RESUME", ck);
    const Artefacts resumed =
        leg("mx_resume_t" + std::to_string(threads), threads);
    EXPECT_EQ(resumed.trace, base.trace) << "threads=" << threads;
    EXPECT_EQ(resumed.metrics, base.metrics) << "threads=" << threads;
  }

  // Migration bytes are metered from each store's visited-node count, which
  // load_state recounts; they reach the task result but no artefact.
  const snapshot::ExperimentIdentity identity{"mapping", 1, seed,
                                              network.graph.node_count(),
                                              task.max_steps};
  const auto direct = [&](snapshot::ExperimentCheckpointer* checkpointer) {
    MappingTaskConfig run_config = task;
    snapshot::RunCheckpointPort port;
    if (checkpointer) {
      port = checkpointer->port(0);
      run_config.checkpoint = &port;
    }
    World world = World::frozen(network);
    return run_mapping_task(world, run_config, Rng(seed));
  };
  const MappingTaskResult uninterrupted = direct(nullptr);
  const std::string direct_ck = temp_path("mx_direct.snap");
  snapshot::ExperimentCheckpointer saver(identity, direct_ck, 35, "");
  direct(&saver);
  ASSERT_EQ(snapshot::load_checkpoint(direct_ck).runs.at(0).step, 70u)
      << "the resume must start mid-run";
  snapshot::ExperimentCheckpointer resumer(identity, "", 35, direct_ck);
  const MappingTaskResult resumed = direct(&resumer);
  EXPECT_GT(uninterrupted.migration_bytes, 0u);
  EXPECT_EQ(resumed.migration_bytes, uninterrupted.migration_bytes);
  EXPECT_EQ(resumed.finishing_time, uninterrupted.finishing_time);
}

// On an advancing world the run's edge index grows as agents sense arcs
// the step-0 topology lacked. A resumed run re-registers the stored arcs
// in load order, so its ids differ from the uninterrupted run's; every
// result depends on counts only and must match exactly. The monitor's map
// goes through the same node-pair encoding.
TEST(SnapshotResumeTest, MappingResumeOnAdvancingWorldMatches) {
  TargetEdgeParams params;
  params.geometry.node_count = 40;
  params.target_edges = 240;
  params.tolerance = 0.05;
  const GeneratedNetwork network = generate_target_edge_network(params, 5);
  MappingTaskConfig task;
  task.population = 6;
  task.max_steps = 150;
  task.advance_world = true;
  task.truth_edges_override = network.graph.edge_count();
  task.monitor_node = 0;
  task.faults.knowledge_ttl = 15;
  const std::uint64_t seed = 77;
  const snapshot::ExperimentIdentity identity{"mapping", 1, seed,
                                              network.graph.node_count(),
                                              task.max_steps};
  const auto direct = [&](snapshot::ExperimentCheckpointer* checkpointer) {
    MappingTaskConfig run_config = task;
    snapshot::RunCheckpointPort port;
    if (checkpointer) {
      port = checkpointer->port(0);
      run_config.checkpoint = &port;
    }
    World world = World::frozen(network);
    world.set_link_flapper(LinkFlapper(0.3, 4, 9));
    return run_mapping_task(world, run_config, Rng(seed));
  };
  const MappingTaskResult uninterrupted = direct(nullptr);
  const std::string ck = temp_path("madv.snap");
  snapshot::ExperimentCheckpointer saver(identity, ck, 35, "");
  direct(&saver);
  ASSERT_GE(snapshot::load_checkpoint(ck).runs.at(0).step, 35u);
  snapshot::ExperimentCheckpointer resumer(identity, "", 35, ck);
  const MappingTaskResult resumed = direct(&resumer);
  EXPECT_EQ(resumed.finished, uninterrupted.finished);
  EXPECT_EQ(resumed.finishing_time, uninterrupted.finishing_time);
  EXPECT_EQ(resumed.mean_knowledge, uninterrupted.mean_knowledge);
  EXPECT_EQ(resumed.min_knowledge, uninterrupted.min_knowledge);
  EXPECT_EQ(resumed.migration_bytes, uninterrupted.migration_bytes);
  EXPECT_GT(uninterrupted.monitor_completeness, 0.0);
  EXPECT_EQ(resumed.monitor_completeness,
            uninterrupted.monitor_completeness);
  EXPECT_EQ(resumed.monitor_finished, uninterrupted.monitor_finished);
  EXPECT_EQ(resumed.monitor_finishing_time,
            uninterrupted.monitor_finishing_time);
}

TEST(SnapshotResumeTest, TrafficResumeByteIdentical) {
  const RoutingScenario scenario = tiny_scenario();
  TrafficTaskConfig task;
  task.steps = 60;
  task.measure_from = 30;
  task.faults = chaos_plan();
  const int runs = 2;
  const std::uint64_t seed = 7;
  const auto leg = [&](const std::string& tag, int threads) {
    return run_leg(tag, [&](const obs::ObsConfig& config) {
      run_traffic_experiment(scenario, task, runs, seed, threads, config);
    });
  };

  const Artefacts base = leg("tf_base", 1);
  const std::string ck = temp_path("tf.snap");
  {
    EnvGuard save("AGENTNET_CHECKPOINT", ck);
    EnvGuard every("AGENTNET_CHECKPOINT_EVERY", "20");
    const Artefacts saving = leg("tf_save", 2);
    EXPECT_EQ(saving.trace, base.trace);
    EXPECT_EQ(saving.metrics, base.metrics);
  }
  for (const int threads : {1, 2, 7}) {
    EnvGuard resume("AGENTNET_RESUME", ck);
    const Artefacts resumed =
        leg("tf_resume_t" + std::to_string(threads), threads);
    EXPECT_EQ(resumed.trace, base.trace) << "threads=" << threads;
    EXPECT_EQ(resumed.metrics, base.metrics) << "threads=" << threads;
  }
}

/// Checkpoints a fault-injected replication of a routing-family baseline
/// through the harness and resumes it at every thread count.
template <typename Task, typename RunTask>
void expect_baseline_resumes(const char* kind, Task task, RunTask run_task) {
  const RoutingScenario scenario = tiny_scenario();
  task.steps = 60;
  task.measure_from = 30;
  task.faults = chaos_plan();
  const auto leg = [&](const std::string& tag, int threads) {
    return run_leg(tag, [&](const obs::ObsConfig& config) {
      replicate({kind, 2, 31, scenario.node_count(), task.steps, threads,
                 config},
                task, [&](const Task& run_config, Rng rng) {
                  return run_task(scenario, run_config, rng);
                });
    });
  };

  const std::string stem = std::string(kind) + "_";
  const Artefacts base = leg(stem + "base", 1);
  const std::string ck = temp_path(stem + "ck.snap");
  {
    EnvGuard save("AGENTNET_CHECKPOINT", ck);
    EnvGuard every("AGENTNET_CHECKPOINT_EVERY", "20");
    const Artefacts saving = leg(stem + "save", 2);
    EXPECT_EQ(saving.trace, base.trace);
    EXPECT_EQ(saving.metrics, base.metrics);
  }
  for (const auto& [run, record] : snapshot::load_checkpoint(ck).runs)
    EXPECT_EQ(record.step, 40u) << "run " << run;
  for (const int threads : {1, 2, 7}) {
    EnvGuard resume("AGENTNET_RESUME", ck);
    const Artefacts resumed =
        leg(stem + "resume_t" + std::to_string(threads), threads);
    EXPECT_EQ(resumed.trace, base.trace) << "threads=" << threads;
    EXPECT_EQ(resumed.metrics, base.metrics) << "threads=" << threads;
  }
}

TEST(SnapshotResumeTest, AntColonyResumeByteIdentical) {
  expect_baseline_resumes("aco", AntRoutingTaskConfig{},
                          run_ant_routing_task);
}

TEST(SnapshotResumeTest, DvResumeByteIdentical) {
  DvRoutingTaskConfig task;
  task.population = 12;
  expect_baseline_resumes("dv", task, run_dv_routing_task);
}

/// The harness loop without the shared world script: every run live, in
/// its own slot, merged in run-index order.
template <typename Task, typename RunOne>
Artefacts live_loop_leg(const std::string& tag, const Task& task, int runs,
                        std::uint64_t seed, const RunOne& run_one) {
  return run_leg(tag, [&](const obs::ObsConfig& config) {
    std::vector<obs::RunObs> slots(static_cast<std::size_t>(runs));
    obs::enable_slots(slots, config);
    for (int r = 0; r < runs; ++r) {
      obs::ObsRunScope scope(slots[static_cast<std::size_t>(r)]);
      run_one(task, Rng(seed + static_cast<std::uint64_t>(r)));
    }
    obs::merge_and_write(slots, config, seed, runs, 1);
  });
}

TEST(SnapshotResumeTest, ReplayingWorldsResumeLikeLiveOnes) {
  // Replicated experiments replay one shared world script. A checkpoint
  // taken mid-replay holds only the live world state (the format did not
  // change), and a resume continues the replay from the restored step: the
  // artefacts match an uninterrupted loop of live runs at every thread
  // count.
  static_assert(snapshot::kSnapshotVersion == 2,
                "world replay must not change the checkpoint format");
  const RoutingScenario scenario = tiny_scenario();
  const int runs = 3;
  const std::uint64_t seed = 2024;

  RoutingTaskConfig routing;
  routing.population = 12;
  routing.steps = 60;
  routing.measure_from = 30;
  routing.record_oracle = true;
  routing.agent.communicate = true;
  routing.faults = chaos_plan();
  const Artefacts routing_live = live_loop_leg(
      "rr_live", routing, runs, seed,
      [&](const RoutingTaskConfig& t, Rng rng) {
        run_routing_task(scenario, t, rng);
      });

  TrafficTaskConfig traffic;
  traffic.steps = 60;
  traffic.measure_from = 30;
  traffic.workload.offered_load = 0.4;
  const Artefacts traffic_live = live_loop_leg(
      "tr_live", traffic, runs, seed,
      [&](const TrafficTaskConfig& t, Rng rng) {
        run_traffic_task(scenario, t, rng);
      });

  const auto routing_leg = [&](const std::string& tag, int threads) {
    return run_leg(tag, [&](const obs::ObsConfig& config) {
      run_routing_experiment(scenario, routing, runs, seed, threads, config);
    });
  };
  const auto traffic_leg = [&](const std::string& tag, int threads) {
    return run_leg(tag, [&](const obs::ObsConfig& config) {
      run_traffic_experiment(scenario, traffic, runs, seed, threads, config);
    });
  };
  const std::string routing_ck = temp_path("rr.snap");
  const std::string traffic_ck = temp_path("tr.snap");
  {
    EnvGuard every("AGENTNET_CHECKPOINT_EVERY", "25");
    {
      EnvGuard save("AGENTNET_CHECKPOINT", routing_ck);
      routing_leg("rr_save", 2);
    }
    EnvGuard save("AGENTNET_CHECKPOINT", traffic_ck);
    traffic_leg("tr_save", 2);
  }
  for (const std::string& ck : {routing_ck, traffic_ck}) {
    // The last save lands at step 50 of 60: the resume is mid-replay.
    const snapshot::Checkpoint on_disk = snapshot::load_checkpoint(ck);
    ASSERT_EQ(on_disk.runs.size(), static_cast<std::size_t>(runs));
    for (const auto& [run, record] : on_disk.runs)
      EXPECT_EQ(record.step, 50u) << ck << " run " << run;
  }
  for (const int threads : {1, 2, 7}) {
    const std::string t = std::to_string(threads);
    {
      EnvGuard resume("AGENTNET_RESUME", routing_ck);
      const Artefacts resumed = routing_leg("rr_resume_t" + t, threads);
      EXPECT_EQ(resumed.trace, routing_live.trace) << "threads=" << threads;
      EXPECT_EQ(resumed.metrics, routing_live.metrics)
          << "threads=" << threads;
    }
    EnvGuard resume("AGENTNET_RESUME", traffic_ck);
    const Artefacts resumed = traffic_leg("tr_resume_t" + t, threads);
    EXPECT_EQ(resumed.trace, traffic_live.trace) << "threads=" << threads;
    EXPECT_EQ(resumed.metrics, traffic_live.metrics) << "threads=" << threads;
  }
}

TEST(SnapshotResumeTest, RoutingWithTrafficResumeMatchesUninterrupted) {
  // The routing task's flow data plane is checkpointed with the agents:
  // a save at step 40 lands inside the traffic window (from step 20), with
  // sessions open and packets queued, and the resumed sweep must match the
  // uninterrupted one in summary, trace and metrics.
  const RoutingScenario scenario = tiny_scenario();
  RoutingTaskConfig task;
  task.population = 12;
  task.steps = 60;
  task.measure_from = 20;
  task.traffic = true;
  task.faults = chaos_plan();
  const int runs = 2;
  const std::uint64_t seed = 909;
  RoutingSummary summary;
  const auto leg = [&](const std::string& tag, int threads) {
    return run_leg(tag, [&](const obs::ObsConfig& config) {
      summary =
          run_routing_experiment(scenario, task, runs, seed, threads, config);
    });
  };

  const Artefacts base = leg("rtf_base", 1);
  const RoutingSummary base_summary = summary;
  ASSERT_GT(base_summary.traffic.delivered, 0u);
  const std::string ck = temp_path("rtf.snap");
  {
    EnvGuard save("AGENTNET_CHECKPOINT", ck);
    EnvGuard every("AGENTNET_CHECKPOINT_EVERY", "40");
    leg("rtf_save", 2);
  }
  for (const auto& [run, record] : snapshot::load_checkpoint(ck).runs)
    EXPECT_EQ(record.step, 40u) << "run " << run;
  for (const int threads : {1, 2}) {
    EnvGuard resume("AGENTNET_RESUME", ck);
    const Artefacts resumed =
        leg("rtf_resume_t" + std::to_string(threads), threads);
    EXPECT_EQ(summary.traffic, base_summary.traffic) << "threads=" << threads;
    EXPECT_EQ(summary.mean_connectivity.mean(),
              base_summary.mean_connectivity.mean());
    EXPECT_EQ(summary.connectivity.mean(), base_summary.connectivity.mean());
    EXPECT_EQ(resumed.trace, base.trace) << "threads=" << threads;
    EXPECT_EQ(resumed.metrics, base.metrics) << "threads=" << threads;
  }

  // The traffic setting is part of the run state: resuming it with
  // traffic off is refused.
  task.traffic = false;
  EnvGuard resume("AGENTNET_RESUME", ck);
  EXPECT_THROW(leg("rtf_mismatch", 1), ConfigError);
}

TEST(SnapshotResumeTest, ResumeFromEarlierCheckpointAlsoIdentical) {
  // Any valid record is a correct restart point, not just the latest:
  // checkpoint at step 20 (period 20, budget 45 → last full save at 40),
  // then resume from the on-disk file mid-history.
  const RoutingScenario scenario = tiny_scenario();
  RoutingTaskConfig task;
  task.population = 10;
  task.steps = 45;
  task.measure_from = 20;
  const int runs = 2;
  const std::uint64_t seed = 555;
  const auto leg = [&](const std::string& tag, int threads) {
    return run_leg(tag, [&](const obs::ObsConfig& config) {
      run_routing_experiment(scenario, task, runs, seed, threads, config);
    });
  };

  const Artefacts base = leg("early_base", 1);
  const std::string ck = temp_path("early.snap");
  {
    // Save only at step 20: with the budget at 45 the file's final state
    // is a mid-run record well before the finish line.
    EnvGuard save("AGENTNET_CHECKPOINT", ck);
    EnvGuard every("AGENTNET_CHECKPOINT_EVERY", "40");
    leg("early_save", 1);
  }
  const snapshot::Checkpoint on_disk = snapshot::load_checkpoint(ck);
  ASSERT_EQ(on_disk.runs.size(), static_cast<std::size_t>(runs));
  for (const auto& [run, record] : on_disk.runs)
    EXPECT_EQ(record.step, 40u) << "run " << run;
  {
    EnvGuard resume("AGENTNET_RESUME", ck);
    const Artefacts resumed = leg("early_resume", 2);
    EXPECT_EQ(resumed.trace, base.trace);
    EXPECT_EQ(resumed.metrics, base.metrics);
  }
}

#endif  // AGENTNET_OBS_LEVEL >= 1

}  // namespace
}  // namespace agentnet
