// Error types and invariant-checking macros used across agentnet.
//
// Policy (see DESIGN.md): configuration and usage errors throw exceptions
// derived from agentnet::Error; internal invariant violations abort through
// AGENTNET_ASSERT so they are never silently swallowed in release builds.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace agentnet {

/// Base class for all exceptions thrown by agentnet.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a caller-supplied configuration value is out of range or
/// inconsistent (e.g. more gateways than nodes).
class ConfigError : public Error {
 public:
  explicit ConfigError(const std::string& what) : Error(what) {}
};

namespace detail {
[[noreturn]] inline void assert_fail(const char* expr, const char* file,
                                     int line, const char* msg) {
  std::fprintf(stderr, "agentnet assertion failed: %s\n  at %s:%d\n  %s\n",
               expr, file, line, msg ? msg : "");
  std::abort();
}
}  // namespace detail

}  // namespace agentnet

/// Internal invariant check; active in all build types. Use for conditions
/// that indicate a bug in agentnet itself, not bad caller input.
#define AGENTNET_ASSERT(expr)                                              \
  do {                                                                     \
    if (!(expr))                                                           \
      ::agentnet::detail::assert_fail(#expr, __FILE__, __LINE__, nullptr); \
  } while (0)

#define AGENTNET_ASSERT_MSG(expr, msg)                                 \
  do {                                                                 \
    if (!(expr))                                                       \
      ::agentnet::detail::assert_fail(#expr, __FILE__, __LINE__, msg); \
  } while (0)

/// Caller-input validation: throws ConfigError with the given message.
#define AGENTNET_REQUIRE(expr, msg)             \
  do {                                          \
    if (!(expr)) throw ::agentnet::ConfigError( \
        std::string("requirement failed: ") + (msg)); \
  } while (0)
