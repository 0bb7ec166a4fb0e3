// Run manifests: the provenance record attached to every telemetry
// artefact (CSV, trace, metrics stream).
//
// A result file without its context — which seed, which AGENTNET_* knobs,
// which build type, whether the telemetry layer was even compiled in — is
// unreproducible and, for timings, incomparable. The manifest is a small
// JSON document the experiment harness writes next to the data (to
// AGENTNET_MANIFEST): deterministic field order, no wall-clock timestamps,
// so two runs of the same configuration produce byte-identical manifests
// that diff cleanly.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs_level.hpp"

namespace agentnet::obs {

struct RunManifest {
  std::string library_version;  ///< AGENTNET_VERSION (CMake project version).
  std::string build_type;       ///< "release" (NDEBUG) or "debug".
  /// Exact CMake flavor (AGENTNET_BUILD_TYPE, e.g. "Release" or
  /// "RelWithDebInfo"); distinguishes flavors NDEBUG lumps together, so
  /// a timing can be traced to the exact binary that produced it.
  std::string cmake_build_type;
  int obs_level = AGENTNET_OBS_LEVEL;
  std::uint64_t seed = 0;       ///< Run-seed base of the experiment.
  int runs = 0;                 ///< Replications in the experiment.
  int threads = 0;              ///< Resolved worker count (AGENTNET_THREADS).
  std::uint64_t metrics_every = 1;
  std::string trace_path;       ///< Empty = no trace written.
  std::string metrics_path;     ///< Empty = no metrics written.
  /// Snapshot of every set AGENTNET_* knob (common/env.hpp), sorted by name.
  std::vector<std::pair<std::string, std::string>> env;

  friend bool operator==(const RunManifest&, const RunManifest&) = default;
};

/// Builds a manifest for the current process: library version, build type,
/// obs level, the given experiment shape, and the sorted AGENTNET_* knob
/// snapshot. `threads` 0 records the AGENTNET_THREADS knob (0 when unset).
RunManifest make_manifest(std::uint64_t seed, int runs, int threads);

/// Deterministic pretty-printed JSON (stable key order, no timestamps).
std::string manifest_json(const RunManifest& manifest);

/// Parses manifest_json() output back; nullopt (with `*error` filled when
/// given, as "byte N: <what>", N counted in the whole text) on malformed
/// input or unknown keys. Round-trips exactly.
std::optional<RunManifest> parse_manifest_json(const std::string& text,
                                               std::string* error = nullptr);

/// Writes manifest_json(manifest) to `path` (truncating).
void write_manifest(const std::string& path, const RunManifest& manifest);

}  // namespace agentnet::obs
