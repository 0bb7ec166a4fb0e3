// Deterministic checkpoint/restore for crash-tolerant long runs
// (ROADMAP item 4; docs/ROBUSTNESS.md "Checkpoint/restore").
//
// A checkpoint file is a chunked, versioned, CRC32-checksummed binary
// container (the src/io convention of a versioned magic header, in binary
// form): one identity chunk naming the experiment it belongs to, then one
// chunk per run holding that run's serialized state — every RNG stream,
// the World, the agents/tables/pheromone/queues, the fault injector's
// schedule position, and the run's telemetry buffers — captured at the top
// of a step. Restoring a record and continuing reproduces the
// uninterrupted run byte-for-byte (CSV series, metrics JSONL, counter
// totals) at any AGENTNET_THREADS setting; see the resume-determinism
// contract in docs/ROBUSTNESS.md.
//
// Files are written to `<path>.tmp` and atomically renamed, so a crash
// mid-save can never leave a torn checkpoint at the target path. Corrupt,
// truncated or version-mismatched files are rejected with ConfigError.
//
// Wiring: ExperimentCheckpointer::from_env reads AGENTNET_CHECKPOINT
// (autosave path), AGENTNET_CHECKPOINT_EVERY (period in steps, default 50)
// and AGENTNET_RESUME (checkpoint to restore). Each run of a multi-run
// experiment gets a RunCheckpointPort; runs checkpoint independently (no
// lockstep), and each update rewrites the whole file under a mutex. The
// file's byte content therefore varies with thread timing — it is a
// recovery artefact, not part of the deterministic output surface — but
// resuming from any valid checkpoint yields byte-identical final outputs.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "snapshot/bytes.hpp"

namespace agentnet::snapshot {

inline constexpr char kSnapshotMagic[8] = {'A', 'G', 'N', 'T',
                                           'S', 'N', 'A', 'P'};
inline constexpr std::uint32_t kSnapshotVersion = 2;

/// What experiment a checkpoint belongs to. Resume validates every field
/// and throws ConfigError on mismatch — restoring a routing checkpoint
/// into a mapping sweep (or the same sweep at different scale) must fail
/// loudly, not corrupt state.
struct ExperimentIdentity {
  std::string kind;  ///< "mapping" | "routing" | "aco" | "traffic" | "dv".
  std::uint64_t runs = 0;
  std::uint64_t run_seed_base = 0;
  std::uint64_t node_count = 0;
  std::uint64_t steps = 0;  ///< The step budget (steps / max_steps knob).

  friend bool operator==(const ExperimentIdentity&,
                         const ExperimentIdentity&) = default;
};

/// One run's saved state: the step the record was captured at (top of the
/// loop, before the step executed) and the opaque payload the task's save
/// lambda plus the telemetry capture produced.
struct RunRecord {
  std::uint64_t step = 0;
  std::vector<std::uint8_t> payload;
};

/// The in-memory image of a checkpoint file.
struct Checkpoint {
  ExperimentIdentity identity;
  std::map<std::uint64_t, RunRecord> runs;  ///< Keyed by run index.
};

/// Serializes `checkpoint` to `path` via `<path>.tmp` + atomic rename.
/// Throws ConfigError on I/O failure (target left untouched).
void save_checkpoint(const Checkpoint& checkpoint, const std::string& path);

/// Parses a checkpoint file. Throws ConfigError on missing file, bad
/// magic, unsupported version, truncation, CRC mismatch, or duplicate run
/// records — always with a message locating the problem.
Checkpoint load_checkpoint(const std::string& path);

class ExperimentCheckpointer;

/// A single run's handle into the experiment's checkpointer. The task loop
/// calls save_due/save at the top of each step and restore once before the
/// loop; everything else (telemetry capture ordering, file rewriting,
/// checkpoint trace events) is handled here so the task wiring stays
/// three lines.
class RunCheckpointPort {
 public:
  using SaveFn = std::function<void(ByteWriter&)>;
  using LoadFn = std::function<void(ByteReader&)>;

  RunCheckpointPort() = default;

  /// True when a resume record exists for this run.
  bool resuming() const { return has_resume_; }

  /// Restores this run's record: `load_state` rebuilds the task's state
  /// from the reader, then the telemetry buffers are restored on top (so
  /// any counters or events emitted while loading are absorbed), then a
  /// checkpoint_restored counter + trace event is emitted. Returns the
  /// step to resume the loop at.
  std::size_t restore(const LoadFn& load_state);

  /// True when the loop should checkpoint at the top of step `t`: autosave
  /// is configured, t is a nonzero multiple of the period, and t is not
  /// the step this run just resumed at (that state is already on disk).
  bool save_due(std::size_t t) const;

  /// Captures a checkpoint at the top of step `t`: the task's save lambda
  /// first, then the telemetry buffers, then (after the capture, so the
  /// record never describes itself) the checkpoint_saved counter + trace
  /// event; finally the experiment file is atomically rewritten.
  void save(std::size_t t, const SaveFn& save_state);

 private:
  friend class ExperimentCheckpointer;

  ExperimentCheckpointer* owner_ = nullptr;
  std::uint64_t run_ = 0;
  std::uint64_t every_ = 0;
  bool autosave_ = false;
  bool has_resume_ = false;
  std::uint64_t resume_step_ = 0;
  std::vector<std::uint8_t> resume_payload_;
};

/// Shared, mutex-guarded owner of one experiment's checkpoint state. Runs
/// save independently; every update rewrites the whole file atomically.
class ExperimentCheckpointer {
 public:
  /// `save_path` empty disables autosave (restore-only); `resume_path`
  /// empty starts fresh. A non-empty resume path is loaded and validated
  /// against `identity` immediately (ConfigError on mismatch).
  ExperimentCheckpointer(ExperimentIdentity identity, std::string save_path,
                         std::uint64_t every, const std::string& resume_path);

  /// Builds from AGENTNET_CHECKPOINT / AGENTNET_CHECKPOINT_EVERY /
  /// AGENTNET_RESUME; nullptr when neither path variable is set.
  static std::unique_ptr<ExperimentCheckpointer> from_env(
      const ExperimentIdentity& identity);

  /// The port for run `run` (thread-safe; call from the run's worker).
  RunCheckpointPort port(std::uint64_t run);

 private:
  friend class RunCheckpointPort;

  void update(std::uint64_t run, std::uint64_t step,
              std::vector<std::uint8_t> payload);

  ExperimentIdentity identity_;
  std::string path_;
  std::uint64_t every_;
  std::mutex mutex_;
  Checkpoint state_;
};

}  // namespace agentnet::snapshot
