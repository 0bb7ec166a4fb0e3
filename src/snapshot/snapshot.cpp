#include "snapshot/snapshot.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <utility>

#include "common/atomic_file.hpp"
#include "common/env.hpp"
#include "common/error.hpp"
#include "obs/obs.hpp"

namespace agentnet::snapshot {

namespace {

constexpr std::uint32_t kChunkIdentity = 1;
constexpr std::uint32_t kChunkRun = 2;

void write_identity(ByteWriter& w, const ExperimentIdentity& id) {
  w.str(id.kind);
  w.u64(id.runs);
  w.u64(id.run_seed_base);
  w.u64(id.node_count);
  w.u64(id.steps);
}

ExperimentIdentity read_identity(ByteReader& r) {
  ExperimentIdentity id;
  id.kind = r.str();
  id.runs = r.u64();
  id.run_seed_base = r.u64();
  id.node_count = r.u64();
  id.steps = r.u64();
  return id;
}

/// A run chunk's body opens with the run index, the step and the payload's
/// length prefix — 24 bytes — and the payload follows.
constexpr std::size_t kRunPrefixBytes = 24;

void put(std::ostream& os, const std::vector<std::uint8_t>& bytes) {
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
}

/// Streams one chunk — header, then `prefix` and `payload` as its body —
/// straight to `os`. The CRC chains over the two parts, so the body is
/// never assembled in memory.
void write_chunk(std::ostream& os, std::uint32_t id,
                 const std::vector<std::uint8_t>& prefix,
                 const std::vector<std::uint8_t>& payload) {
  ByteWriter header;
  header.u32(id);
  header.u64(prefix.size() + payload.size());
  header.u32(crc32(payload.data(), payload.size(),
                   crc32(prefix.data(), prefix.size())));
  put(os, header.bytes());
  put(os, prefix);
  put(os, payload);
}

/// Captures one run's telemetry shard — counters, trace events, metrics
/// rows — so a restored run continues the exact streams it was recording.
/// Phase timings are wall-clock and deliberately not captured: they are
/// reported as `# phase_*_ms=` footer comments, outside the deterministic
/// output surface. Bookkeeping counters (checkpoint_*, the agent engine's
/// dispatch count) are captured as zero for the same reason: they track
/// harness activity, not run state, and capturing them would make payload
/// bytes depend on AGENTNET_AGENT_THREADS or on earlier autosaves.
void save_obs_state(ByteWriter& w, const obs::RunObs& o) {
  for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
    const auto counter = static_cast<obs::Counter>(i);
    w.u64(obs::is_bookkeeping_counter(counter) ? 0
                                               : o.counters.value(counter));
  }
  const auto& events = o.trace.events();
  w.size(events.size());
  for (const obs::TraceEvent& e : events) {
    w.u64(static_cast<std::uint64_t>(e.kind));
    w.u64(e.step);
    w.i64(e.agent);
    w.i64(e.a);
    w.i64(e.b);
  }
  o.metrics.save_state(w);
}

void load_obs_state(ByteReader& r, obs::RunObs& o) {
  for (std::size_t i = 0; i < obs::kCounterCount; ++i)
    o.counters.set(static_cast<obs::Counter>(i), r.u64());
  const std::size_t n = r.counted(5 * 8);
  o.trace.clear();
  for (std::size_t k = 0; k < n; ++k) {
    obs::TraceEvent e;
    const std::uint64_t kind = r.u64();
    AGENTNET_REQUIRE(
        kind < static_cast<std::uint64_t>(obs::TraceEventKind::kCount),
        "snapshot: unknown trace event kind " + std::to_string(kind));
    e.kind = static_cast<obs::TraceEventKind>(kind);
    e.step = r.u64();
    e.agent = r.i64();
    e.a = r.i64();
    e.b = r.i64();
    // append() is gated on the buffer being enabled — which it is exactly
    // when the resuming process traces too, i.e. when the environment
    // matches the saving process's (the resume contract).
    o.trace.append(e);
  }
  o.metrics.load_state(r);
}

}  // namespace

void save_checkpoint(const Checkpoint& checkpoint, const std::string& path) {
  AtomicFileWriter file(path, std::ios::binary);
  std::ostream& os = file.stream();
  os.write(kSnapshotMagic, sizeof kSnapshotMagic);
  ByteWriter header;
  header.u32(kSnapshotVersion);
  header.u32(static_cast<std::uint32_t>(1 + checkpoint.runs.size()));
  put(os, header.bytes());
  ByteWriter identity;
  write_identity(identity, checkpoint.identity);
  write_chunk(os, kChunkIdentity, identity.bytes(), {});
  for (const auto& [run, record] : checkpoint.runs) {
    ByteWriter prefix;
    prefix.u64(run);
    prefix.u64(record.step);
    prefix.size(record.payload.size());
    write_chunk(os, kChunkRun, prefix.bytes(), record.payload);
  }
  file.commit();
}

Checkpoint load_checkpoint(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  AGENTNET_REQUIRE(is.is_open(), "cannot open checkpoint: " + path);
  const std::uint64_t file_size = static_cast<std::uint64_t>(is.tellg());
  is.seekg(0);
  // Every read is checked against the bytes left in the file before
  // anything is allocated for it, so a corrupt length cannot allocate.
  std::uint64_t offset = 0;
  const auto read = [&](std::vector<std::uint8_t>& into, std::uint64_t n) {
    AGENTNET_REQUIRE(n <= file_size - offset,
                     "snapshot: truncated stream at byte " +
                         std::to_string(offset) + " (need " +
                         std::to_string(n) + " more of " +
                         std::to_string(file_size - offset) + " left)");
    into.resize(static_cast<std::size_t>(n));
    is.read(reinterpret_cast<char*>(into.data()),
            static_cast<std::streamsize>(n));
    AGENTNET_REQUIRE(!is.fail(), "error reading checkpoint");
    offset += n;
  };

  Checkpoint out;
  try {
    std::vector<std::uint8_t> head;
    AGENTNET_REQUIRE(file_size >= sizeof kSnapshotMagic,
                     "not an agentnet snapshot (bad magic)");
    read(head, sizeof kSnapshotMagic);
    AGENTNET_REQUIRE(
        std::memcmp(head.data(), kSnapshotMagic, sizeof kSnapshotMagic) == 0,
        "not an agentnet snapshot (bad magic)");
    read(head, 8);
    ByteReader r(head);
    const std::uint32_t version = r.u32();
    AGENTNET_REQUIRE(
        version == kSnapshotVersion,
        "unsupported snapshot version " + std::to_string(version) +
            " (this build reads version " + std::to_string(kSnapshotVersion) +
            ")");
    const std::uint32_t chunk_count = r.u32();

    bool have_identity = false;
    std::vector<std::uint8_t> prefix;
    for (std::uint32_t c = 0; c < chunk_count; ++c) {
      const std::uint64_t at = offset;
      const std::string where =
          std::to_string(c) + " at byte " + std::to_string(at);
      read(head, 16);
      ByteReader h(head);
      const std::uint32_t id = h.u32();
      const std::uint64_t len = h.u64();
      const std::uint32_t stored_crc = h.u32();
      AGENTNET_REQUIRE(len <= file_size - offset,
                       "snapshot: chunk " + std::to_string(c) +
                           " of length " + std::to_string(len) +
                           " overruns the file at byte " +
                           std::to_string(at));
      // A run chunk's payload is read on its own into an exactly sized
      // buffer that becomes the record's payload.
      const std::uint64_t split =
          id == kChunkRun ? std::min<std::uint64_t>(len, kRunPrefixBytes)
                          : len;
      std::vector<std::uint8_t> payload;
      read(prefix, split);
      read(payload, len - split);
      AGENTNET_REQUIRE(crc32(payload.data(), payload.size(),
                             crc32(prefix.data(), prefix.size())) ==
                           stored_crc,
                       "snapshot: CRC mismatch in chunk " + where);
      ByteReader body(prefix);
      if (id == kChunkIdentity) {
        AGENTNET_REQUIRE(!have_identity, "snapshot: duplicate identity chunk");
        out.identity = read_identity(body);
        have_identity = true;
      } else if (id == kChunkRun) {
        const std::uint64_t run = body.u64();
        RunRecord record;
        record.step = body.u64();
        AGENTNET_REQUIRE(body.u64() == payload.size(),
                         "snapshot: payload length disagrees with chunk " +
                             where);
        record.payload = std::move(payload);
        AGENTNET_REQUIRE(out.runs.find(run) == out.runs.end(),
                         "snapshot: duplicate record for run " +
                             std::to_string(run));
        out.runs.emplace(run, std::move(record));
      } else {
        throw ConfigError("snapshot: unknown chunk id " + std::to_string(id) +
                          " at byte " + std::to_string(at));
      }
      AGENTNET_REQUIRE(body.done(), "snapshot: trailing bytes in chunk " +
                                        where);
    }
    AGENTNET_REQUIRE(offset == file_size,
                     "snapshot: " + std::to_string(file_size - offset) +
                         " trailing bytes after last chunk");
    AGENTNET_REQUIRE(have_identity, "snapshot: missing identity chunk");
  } catch (const ConfigError& e) {
    // Every structural failure names the file it came from.
    throw ConfigError(std::string(e.what()) + ": " + path);
  }
  return out;
}

std::size_t RunCheckpointPort::restore(const LoadFn& load_state) {
  AGENTNET_REQUIRE(has_resume_, "no checkpoint record to restore");
  ByteReader r(resume_payload_);
  load_state(r);  // task state first; restoring telemetry last absorbs any
                  // counters/events the load itself emitted
  load_obs_state(r, obs::current_obs());
  AGENTNET_REQUIRE(r.done(),
                   "snapshot: trailing bytes in run " + std::to_string(run_) +
                       " record");
  AGENTNET_COUNT(kCheckpointRestored);
  AGENTNET_OBS_EVENT(kCheckpointRestored, resume_step_);
  return static_cast<std::size_t>(resume_step_);
}

bool RunCheckpointPort::save_due(std::size_t t) const {
  if (!autosave_ || every_ == 0 || t == 0) return false;
  if (t % every_ != 0) return false;
  // The resume step's state is already on disk.
  return !(has_resume_ && t == resume_step_);
}

void RunCheckpointPort::save(std::size_t t, const SaveFn& save_state) {
  ByteWriter w;
  save_state(w);
  save_obs_state(w, obs::current_obs());
  // Emitted after the capture, so a record never describes its own save.
  AGENTNET_COUNT(kCheckpointSaved);
  AGENTNET_OBS_EVENT(kCheckpointSaved, t);
  owner_->update(run_, t, w.take());
}

ExperimentCheckpointer::ExperimentCheckpointer(ExperimentIdentity identity,
                                               std::string save_path,
                                               std::uint64_t every,
                                               const std::string& resume_path)
    : identity_(std::move(identity)),
      path_(std::move(save_path)),
      every_(every) {
  if (!resume_path.empty()) {
    state_ = load_checkpoint(resume_path);
    const ExperimentIdentity& got = state_.identity;
    AGENTNET_REQUIRE(
        got == identity_,
        "checkpoint " + resume_path +
            " belongs to a different experiment (file: kind=" + got.kind +
            " runs=" + std::to_string(got.runs) + " seed=" +
            std::to_string(got.run_seed_base) + " nodes=" +
            std::to_string(got.node_count) + " steps=" +
            std::to_string(got.steps) + "; expected: kind=" + identity_.kind +
            " runs=" + std::to_string(identity_.runs) + " seed=" +
            std::to_string(identity_.run_seed_base) + " nodes=" +
            std::to_string(identity_.node_count) + " steps=" +
            std::to_string(identity_.steps) + ")");
  } else {
    state_.identity = identity_;
  }
}

std::unique_ptr<ExperimentCheckpointer> ExperimentCheckpointer::from_env(
    const ExperimentIdentity& identity) {
  check_environment();
  const std::string save_path = knob_string(Knob::kCheckpoint).value_or("");
  const std::string resume_path = knob_string(Knob::kResume).value_or("");
  if (save_path.empty() && resume_path.empty()) return nullptr;
  const std::int64_t every = knob_int(Knob::kCheckpointEvery, 50);
  return std::make_unique<ExperimentCheckpointer>(
      identity, save_path, static_cast<std::uint64_t>(every), resume_path);
}

RunCheckpointPort ExperimentCheckpointer::port(std::uint64_t run) {
  std::lock_guard<std::mutex> lock(mutex_);
  RunCheckpointPort p;
  p.owner_ = this;
  p.run_ = run;
  p.every_ = every_;
  p.autosave_ = !path_.empty();
  const auto it = state_.runs.find(run);
  if (it != state_.runs.end()) {
    p.has_resume_ = true;
    p.resume_step_ = it->second.step;
    p.resume_payload_ = it->second.payload;
  }
  return p;
}

void ExperimentCheckpointer::update(std::uint64_t run, std::uint64_t step,
                                    std::vector<std::uint8_t> payload) {
  std::lock_guard<std::mutex> lock(mutex_);
  state_.runs[run] = RunRecord{step, std::move(payload)};
  if (!path_.empty()) save_checkpoint(state_, path_);
}

}  // namespace agentnet::snapshot
