// key=value command-line options for the examples and the experiment CLI.
//
//   Options opts = Options::parse(argc, argv);
//   auto nodes = opts.get_int("nodes", 250);
//   auto policy = opts.get_string("policy", "oldest");
//   opts.finish();   // throws on unrecognised keys (typo guard)
//
// The value grammar below is the one the AGENTNET_* knobs (common/env.hpp)
// read through too. `what` names the value in errors, e.g. "option nodes".
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace agentnet {

/// A whole-token integer in [min, max]; throws ConfigError otherwise.
std::int64_t parse_int(std::string_view what, const std::string& text,
                       std::int64_t min, std::int64_t max);
/// A whole-token finite number in [min, max] (inf and nan are rejected);
/// throws ConfigError otherwise.
double parse_double(std::string_view what, const std::string& text,
                    double min, double max);
/// 1/true/yes/on → true, 0/false/no/off → false, in any case; throws
/// ConfigError otherwise.
bool parse_bool(std::string_view what, const std::string& text);

class Options {
 public:
  /// Parses argv[1..] as key=value tokens. A bare token (no '=') is
  /// treated as a boolean flag set to true. Throws ConfigError on an
  /// empty key or a repeated key.
  static Options parse(int argc, const char* const* argv);
  /// Convenience for tests.
  static Options parse(const std::vector<std::string>& args);

  bool has(const std::string& key) const;

  std::string get_string(const std::string& key, std::string fallback);
  /// The value through parse_int; out of [min, max] is a ConfigError.
  std::int64_t get_int(
      const std::string& key, std::int64_t fallback,
      std::int64_t min = std::numeric_limits<std::int64_t>::min(),
      std::int64_t max = std::numeric_limits<std::int64_t>::max());
  double get_double(const std::string& key, double fallback);
  bool get_bool(const std::string& key, bool fallback);

  /// Keys that were supplied but never queried (usually typos).
  std::vector<std::string> unrecognized() const;
  /// Throws ConfigError listing unrecognised keys, if any.
  void finish() const;

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> queried_;
};

}  // namespace agentnet
