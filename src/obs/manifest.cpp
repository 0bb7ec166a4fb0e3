#include "obs/manifest.hpp"

#include <unistd.h>

#include <algorithm>
#include <type_traits>

#include "common/atomic_file.hpp"
#include "common/env.hpp"
#include "obs/codec.hpp"

#ifndef AGENTNET_VERSION
#define AGENTNET_VERSION "0.0.0"
#endif

#ifndef AGENTNET_BUILD_TYPE
#define AGENTNET_BUILD_TYPE ""
#endif

extern char** environ;

namespace agentnet::obs {

RunManifest make_manifest(std::uint64_t seed, int runs, int threads) {
  RunManifest manifest;
  manifest.library_version = AGENTNET_VERSION;
#ifdef NDEBUG
  manifest.build_type = "release";
#else
  manifest.build_type = "debug";
#endif
  manifest.cmake_build_type = AGENTNET_BUILD_TYPE;
  manifest.obs_level = AGENTNET_OBS_LEVEL;
  manifest.seed = seed;
  manifest.runs = runs;
  manifest.threads = threads == 0 ? bench_threads() : threads;
  for (char** entry = environ; entry != nullptr && *entry != nullptr;
       ++entry) {
    const std::string var(*entry);
    if (var.rfind("AGENTNET_", 0) != 0) continue;
    const std::size_t eq = var.find('=');
    if (eq == std::string::npos) continue;
    manifest.env.emplace_back(var.substr(0, eq), var.substr(eq + 1));
  }
  std::sort(manifest.env.begin(), manifest.env.end());
  return manifest;
}

std::string manifest_json(const RunManifest& manifest) {
  std::string out;
  JsonWriter json(out, 2);
  json.open();
  json.field("library_version", manifest.library_version);
  json.field("build_type", manifest.build_type);
  json.field("cmake_build_type", manifest.cmake_build_type);
  json.field("obs_level", manifest.obs_level);
  json.field("seed", static_cast<std::int64_t>(manifest.seed));
  json.field("runs", manifest.runs);
  json.field("threads", manifest.threads);
  json.field("metrics_every",
             static_cast<std::int64_t>(manifest.metrics_every));
  json.field("trace_path", manifest.trace_path);
  json.field("metrics_path", manifest.metrics_path);
  json.open("env");
  for (const auto& [name, value] : manifest.env) json.field(name, value);
  json.close();
  json.close();
  out += '\n';
  return out;
}

std::optional<RunManifest> parse_manifest_json(const std::string& text,
                                               std::string* error) {
  JsonReader reader(text, error);
  RunManifest manifest;
  manifest.obs_level = 0;
  // Integers are read as int64 and cast to the field's type.
  const auto integer = [&](auto& out) {
    reader.skip_ws();
    const std::size_t at = reader.pos();
    std::int64_t value = 0;
    if (!from_token(reader.number(), value))
      return reader.fail_at(at, "expected integer");
    out = static_cast<std::remove_reference_t<decltype(out)>>(value);
    return true;
  };
  const auto member = [&](const std::string& key, std::size_t key_at) {
    if (key == "library_version")
      return reader.string(manifest.library_version);
    if (key == "build_type") return reader.string(manifest.build_type);
    if (key == "cmake_build_type")
      return reader.string(manifest.cmake_build_type);
    if (key == "trace_path") return reader.string(manifest.trace_path);
    if (key == "metrics_path") return reader.string(manifest.metrics_path);
    if (key == "obs_level") return integer(manifest.obs_level);
    if (key == "seed") return integer(manifest.seed);
    if (key == "runs") return integer(manifest.runs);
    if (key == "threads") return integer(manifest.threads);
    if (key == "metrics_every") return integer(manifest.metrics_every);
    if (key == "env")
      return reader.object([&](std::string& name, std::size_t) {
        std::string value;
        if (!reader.string(value)) return false;
        manifest.env.emplace_back(std::move(name), std::move(value));
        return true;
      });
    return reader.fail_at(key_at, "unknown manifest field \"" + key + "\"");
  };
  if (!reader.object(member) || !reader.end()) return std::nullopt;
  return manifest;
}

void write_manifest(const std::string& path, const RunManifest& manifest) {
  // Temp-then-rename: a crash mid-write never leaves a torn manifest.
  AtomicFileWriter file(path);
  file.stream() << manifest_json(manifest);
  file.commit();
}

}  // namespace agentnet::obs
