// Phase timing: where does a run's wall-clock go?
//
// A phase is one of the fixed stages every task loop decomposes into
// (sense / exchange / decide / move / measure / world-advance) plus the
// harness stages around it (setup / step / merge / summarize). Timings are
// wall-clock and therefore *not* part of the determinism contract — they
// never feed back into a simulation, and they are reported out-of-band
// (stderr, CSV `#` footers) so result tables stay byte-stable.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "obs/obs_level.hpp"

namespace agentnet::obs {

enum class Phase : std::size_t {
  kSetup,         ///< Scenario / team construction before the step loop.
  kSense,         ///< Agents observing their node (arrival bookkeeping).
  kExchange,      ///< Meetings: pooling and distributing shared state.
  kExchangePlan,  ///< Exchange sub-phase: serial meeting planning
                  ///< (talker filters, fault draws, meeting events).
  kDecide,        ///< Movement decisions (incl. stigmergy queries).
  kMove,          ///< Migration + per-node installs.
  kCommit,        ///< Two-phase step sub-phase: index-order commit /
                  ///< replay of per-slot results (parallel agent engine).
  kMeasure,       ///< Connectivity / knowledge measurement.
  kWorldAdvance,  ///< Mobility, battery drain, link rebuild (World::advance).
  kTopoBuild,     ///< Cold topology build (World construction, restore,
                  ///< script end); nests inside the phase that runs it.
  kStep,          ///< Whole-step granularity for baselines (aco/flooding).
  kMerge,         ///< Combining replication results in run-index order.
  kSummarize,     ///< Final statistics over the recorded series.
  kCount
};

inline constexpr std::size_t kPhaseCount =
    static_cast<std::size_t>(Phase::kCount);

/// Stable snake_case name, used in reports and CSV footers.
const char* phase_name(Phase phase);

/// Accumulated nanoseconds and call counts per phase. Same sharding story
/// as CounterSlot: relaxed atomics, exact integer merges.
class PhaseAccumulator {
 public:
  void add(Phase phase, std::uint64_t ns, std::uint64_t calls = 1) {
    const auto i = static_cast<std::size_t>(phase);
    ns_[i].fetch_add(ns, std::memory_order_relaxed);
    calls_[i].fetch_add(calls, std::memory_order_relaxed);
  }
  std::uint64_t ns(Phase phase) const {
    return ns_[static_cast<std::size_t>(phase)].load(
        std::memory_order_relaxed);
  }
  std::uint64_t calls(Phase phase) const {
    return calls_[static_cast<std::size_t>(phase)].load(
        std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kPhaseCount> ns_{};
  std::array<std::atomic<std::uint64_t>, kPhaseCount> calls_{};
};

/// Plain copy of an accumulator; comparable and mergeable.
struct PhaseSnapshot {
  struct Entry {
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;
    friend bool operator==(const Entry&, const Entry&) = default;
  };
  std::array<Entry, kPhaseCount> entries{};

  const Entry& at(Phase phase) const {
    return entries[static_cast<std::size_t>(phase)];
  }
  PhaseSnapshot& operator+=(const PhaseSnapshot& other) {
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
      entries[i].calls += other.entries[i].calls;
      entries[i].ns += other.entries[i].ns;
    }
    return *this;
  }
  friend bool operator==(const PhaseSnapshot&,
                         const PhaseSnapshot&) = default;
};

PhaseSnapshot snapshot(const PhaseAccumulator& accumulator);

}  // namespace agentnet::obs
