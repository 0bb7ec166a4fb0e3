#include "obs/manifest.hpp"

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <charconv>
#include <fstream>

#include "common/atomic_file.hpp"
#include "common/env.hpp"
#include "common/error.hpp"

#ifndef AGENTNET_VERSION
#define AGENTNET_VERSION "0.0.0"
#endif

#ifndef AGENTNET_BUILD_TYPE
#define AGENTNET_BUILD_TYPE ""
#endif

extern char** environ;

namespace agentnet::obs {

namespace {

void append_escaped(std::string& out, const std::string& value) {
  out += '"';
  for (const char c : value) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        out += c;
    }
  }
  out += '"';
}

}  // namespace

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
  std::string out = "{\n";
  const auto string_field = [&](const char* key, const std::string& value,
                                bool comma = true) {
    out += "  \"";
    out += key;
    out += "\": ";
    append_escaped(out, value);
    if (comma) out += ',';
    out += '\n';
  };
  const auto int_field = [&](const char* key, std::int64_t value) {
    out += "  \"";
    out += key;
    out += "\": ";
    out += std::to_string(value);
    out += ",\n";
  };
  string_field("library_version", manifest.library_version);
  string_field("build_type", manifest.build_type);
  string_field("cmake_build_type", manifest.cmake_build_type);
  int_field("obs_level", manifest.obs_level);
  int_field("seed", static_cast<std::int64_t>(manifest.seed));
  int_field("runs", manifest.runs);
  int_field("threads", manifest.threads);
  int_field("metrics_every", static_cast<std::int64_t>(manifest.metrics_every));
  string_field("trace_path", manifest.trace_path);
  string_field("metrics_path", manifest.metrics_path);
  out += "  \"env\": {";
  bool first = true;
  for (const auto& [name, value] : manifest.env) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_escaped(out, name);
    out += ": ";
    append_escaped(out, value);
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

namespace {

/// Minimal scanner for manifest_json() output: one top-level object of
/// string / integer fields plus one nested "env" object of strings.
class ManifestScanner {
 public:
  ManifestScanner(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  bool fail(const std::string& message) {
    if (error_) *error_ = message;
    return false;
  }

  void skip_ws() {
    while (i_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[i_])))
      ++i_;
  }

  bool expect(char c) {
    skip_ws();
    if (i_ >= text_.size() || text_[i_] != c)
      return fail(std::string("expected '") + c + "'");
    ++i_;
    return true;
  }

  bool peek_is(char c) {
    skip_ws();
    return i_ < text_.size() && text_[i_] == c;
  }

  bool string(std::string& out) {
    skip_ws();
    if (i_ >= text_.size() || text_[i_] != '"')
      return fail("expected '\"'");
    ++i_;
    out.clear();
    while (i_ < text_.size() && text_[i_] != '"') {
      char c = text_[i_];
      if (c == '\\') {
        ++i_;
        if (i_ >= text_.size()) return fail("dangling escape");
        switch (text_[i_]) {
          case '"':
            c = '"';
            break;
          case '\\':
            c = '\\';
            break;
          case 'n':
            c = '\n';
            break;
          case 't':
            c = '\t';
            break;
          case 'r':
            c = '\r';
            break;
          default:
            return fail("unknown escape");
        }
      }
      out += c;
      ++i_;
    }
    if (i_ >= text_.size()) return fail("unterminated string");
    ++i_;
    return true;
  }

  bool integer(std::int64_t& out) {
    skip_ws();
    const std::size_t start = i_;
    if (i_ < text_.size() && text_[i_] == '-') ++i_;
    while (i_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[i_])))
      ++i_;
    const char* begin = text_.data() + start;
    const char* end = text_.data() + i_;
    const auto result = std::from_chars(begin, end, out);
    if (result.ec != std::errc() || result.ptr != end || begin == end)
      return fail("expected integer");
    return true;
  }

  bool at_end() {
    skip_ws();
    return i_ == text_.size();
  }

 private:
  const std::string& text_;
  std::string* error_;
  std::size_t i_ = 0;
};

}  // namespace

std::optional<RunManifest> parse_manifest_json(const std::string& text,
                                               std::string* error) {
  ManifestScanner scan(text, error);
  RunManifest manifest;
  manifest.obs_level = 0;
  if (!scan.expect('{')) return std::nullopt;
  bool first = true;
  while (!scan.peek_is('}')) {
    if (!first && !scan.expect(',')) return std::nullopt;
    first = false;
    std::string key;
    if (!scan.string(key) || !scan.expect(':')) return std::nullopt;
    if (key == "library_version") {
      if (!scan.string(manifest.library_version)) return std::nullopt;
    } else if (key == "build_type") {
      if (!scan.string(manifest.build_type)) return std::nullopt;
    } else if (key == "cmake_build_type") {
      if (!scan.string(manifest.cmake_build_type)) return std::nullopt;
    } else if (key == "trace_path") {
      if (!scan.string(manifest.trace_path)) return std::nullopt;
    } else if (key == "metrics_path") {
      if (!scan.string(manifest.metrics_path)) return std::nullopt;
    } else if (key == "obs_level" || key == "seed" || key == "runs" ||
               key == "threads" || key == "metrics_every") {
      std::int64_t value = 0;
      if (!scan.integer(value)) return std::nullopt;
      if (key == "obs_level")
        manifest.obs_level = static_cast<int>(value);
      else if (key == "seed")
        manifest.seed = static_cast<std::uint64_t>(value);
      else if (key == "runs")
        manifest.runs = static_cast<int>(value);
      else if (key == "threads")
        manifest.threads = static_cast<int>(value);
      else
        manifest.metrics_every = static_cast<std::uint64_t>(value);
    } else if (key == "env") {
      if (!scan.expect('{')) return std::nullopt;
      bool env_first = true;
      while (!scan.peek_is('}')) {
        if (!env_first && !scan.expect(',')) return std::nullopt;
        env_first = false;
        std::string name, value;
        if (!scan.string(name) || !scan.expect(':') || !scan.string(value))
          return std::nullopt;
        manifest.env.emplace_back(std::move(name), std::move(value));
      }
      if (!scan.expect('}')) return std::nullopt;
    } else {
      scan.fail("unknown manifest field \"" + key + "\"");
      return std::nullopt;
    }
  }
  if (!scan.expect('}')) return std::nullopt;
  if (!scan.at_end()) {
    scan.fail("trailing characters after manifest object");
    return std::nullopt;
  }
  return manifest;
}

void write_manifest(const std::string& path, const RunManifest& manifest) {
  // Temp-then-rename: a crash mid-write never leaves a torn manifest.
  AtomicFileWriter file(path);
  file.stream() << manifest_json(manifest);
  file.commit();
}

}  // namespace agentnet::obs
