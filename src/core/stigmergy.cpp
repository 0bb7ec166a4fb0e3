#include "core/stigmergy.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace agentnet {

StigmergyBoard::StigmergyBoard(std::size_t node_count, std::size_t horizon,
                               std::size_t capacity_per_node)
    : boards_(node_count), horizon_(horizon), capacity_(capacity_per_node) {
  AGENTNET_REQUIRE(capacity_per_node > 0,
                   "stigmergy capacity per node must be > 0");
}

void StigmergyBoard::stamp(NodeId at, NodeId target, std::size_t now) {
  AGENTNET_ASSERT(at < boards_.size());
  AGENTNET_COUNT(kStigmergyStamps);
  AGENTNET_OBS_EVENT(kStamp, now, -1, static_cast<std::int64_t>(at),
                     static_cast<std::int64_t>(target));
  auto& board = boards_[at];
  // Refresh an existing footprint for the same target.
  for (auto& fp : board) {
    if (fp.target == target) {
      fp.step = now;
      return;
    }
  }
  // Reuse an expired slot, else evict the oldest when at capacity.
  for (auto& fp : board) {
    if (expired(fp, now)) {
      fp = {target, now};
      return;
    }
  }
  if (board.size() < capacity_) {
    board.push_back({target, now});
    return;
  }
  auto oldest = std::min_element(
      board.begin(), board.end(),
      [](const Footprint& a, const Footprint& b) { return a.step < b.step; });
  *oldest = {target, now};
}

bool StigmergyBoard::marked(NodeId at, NodeId target, std::size_t now) const {
  AGENTNET_ASSERT(at < boards_.size());
  for (const auto& fp : boards_[at])
    if (fp.target == target && !expired(fp, now)) return true;
  return false;
}

std::size_t StigmergyBoard::footprint_count(NodeId at, std::size_t now) const {
  AGENTNET_ASSERT(at < boards_.size());
  return static_cast<std::size_t>(
      std::count_if(boards_[at].begin(), boards_[at].end(),
                    [&](const Footprint& fp) { return !expired(fp, now); }));
}

}  // namespace agentnet
