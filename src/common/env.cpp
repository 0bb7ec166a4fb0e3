#include "common/env.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>

#include "common/error.hpp"

namespace agentnet {

std::optional<std::string> env_string(const std::string& name) {
  const char* v = std::getenv(name.c_str());
  if (v == nullptr || *v == '\0') return std::nullopt;
  return std::string(v);
}

std::int64_t env_int(const std::string& name, std::int64_t fallback) {
  auto v = env_string(name);
  if (!v) return fallback;
  try {
    std::size_t pos = 0;
    std::int64_t out = std::stoll(*v, &pos);
    AGENTNET_REQUIRE(pos == v->size(), "trailing characters");
    return out;
  } catch (const std::exception&) {
    throw ConfigError("environment variable " + name +
                      " is not an integer: " + *v);
  }
}

double env_double(const std::string& name, double fallback) {
  auto v = env_string(name);
  if (!v) return fallback;
  double out = 0.0;
  try {
    std::size_t pos = 0;
    out = std::stod(*v, &pos);
    AGENTNET_REQUIRE(pos == v->size(), "trailing characters");
  } catch (const std::exception&) {
    throw ConfigError("environment variable " + name +
                      " is not a number: " + *v);
  }
  if (!std::isfinite(out))
    throw ConfigError("environment variable " + name +
                      " is not a finite number: " + *v);
  return out;
}

bool env_bool(const std::string& name, bool fallback) {
  auto v = env_string(name);
  if (!v) return fallback;
  std::string s = *v;
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (s == "1" || s == "true" || s == "yes" || s == "on") return true;
  if (s == "0" || s == "false" || s == "no" || s == "off") return false;
  throw ConfigError("environment variable " + name +
                    " is not a boolean: " + *v);
}

int bench_runs(int fallback) {
  auto runs = env_int("AGENTNET_RUNS", fallback);
  AGENTNET_REQUIRE(runs >= 1 && runs <= 10000, "AGENTNET_RUNS out of range");
  return static_cast<int>(runs);
}

bool bench_full() { return env_bool("AGENTNET_FULL", false); }

int bench_threads() {
  auto threads = env_int("AGENTNET_THREADS", 0);
  AGENTNET_REQUIRE(threads >= 0 && threads <= 1024,
                   "AGENTNET_THREADS out of range");
  return static_cast<int>(threads);
}

}  // namespace agentnet
