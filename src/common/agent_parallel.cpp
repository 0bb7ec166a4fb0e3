#include "common/agent_parallel.hpp"

#include <thread>

#include "common/env.hpp"
#include "common/error.hpp"

namespace agentnet {

namespace {

/// 0 → hardware concurrency; anything else unchanged.
std::size_t resolve_agent_threads(std::size_t threads) {
  if (threads != 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

}  // namespace

AgentParallel::AgentParallel(const AgentParallelConfig& config) {
  const std::size_t threads = resolve_agent_threads(config.threads);
  if (threads > 1) team_ = std::make_shared<ForkJoin>(threads);
}

AgentParallelConfig AgentParallelConfig::from_env() {
  AgentParallelConfig config;
  const std::int64_t raw = env_int("AGENTNET_AGENT_THREADS", 1);
  if (raw < 0)
    throw ConfigError("AGENTNET_AGENT_THREADS must be >= 0");
  config.threads = resolve_agent_threads(static_cast<std::size_t>(raw));
  return config;
}

}  // namespace agentnet
