// Environment-variable configuration used by benches and examples.
//
// The figure benches default to quick settings so `for b in build/bench/*`
// stays fast; AGENTNET_RUNS / AGENTNET_FULL select paper-fidelity sweeps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace agentnet {

/// Raw lookup; nullopt when the variable is unset or empty.
std::optional<std::string> env_string(const std::string& name);

/// Integer lookup; throws ConfigError when set but unparseable.
std::int64_t env_int(const std::string& name, std::int64_t fallback);

/// Double lookup; throws ConfigError when set but unparseable or not finite
/// (inf, -inf, nan).
double env_double(const std::string& name, double fallback);

/// Boolean lookup: 1/true/yes/on (case-insensitive) → true; 0/false/no/off
/// → false; throws ConfigError otherwise.
bool env_bool(const std::string& name, bool fallback);

/// Number of independent runs to average (AGENTNET_RUNS, default given by
/// caller; the paper uses 40).
int bench_runs(int fallback);

/// Whether to run full paper-scale sweeps (AGENTNET_FULL, default false).
bool bench_full();

/// Worker threads for multi-run experiments (AGENTNET_THREADS). 0 / unset
/// means "one per hardware thread"; 1 selects the exact serial path.
/// Results are bit-identical at every setting (see docs/ARCHITECTURE.md).
int bench_threads();

/// Worker count for a fan-out asked for 0 threads: AGENTNET_THREADS when
/// set (>= 1), else hardware_concurrency (>= 1).
std::size_t default_threads();

}  // namespace agentnet
