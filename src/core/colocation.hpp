// Co-location grouping and the meeting commit pass shared by the task
// loops.
//
// Meetings happen between agents standing on the same node. The grouping
// is the load-bearing input of the group-parallel exchange phase
// (common/agent_parallel.hpp): groups are disjoint by construction —
// every agent index appears in at most one group — so distinct groups can
// pool and merge concurrently, while the group *order* (ascending venue
// node id) fixes the serial order fault draws, counters and trace events
// replay in. Within a group, members stay in ascending agent-index order
// (the sort key is (location, index), so tie order never depends on the
// sort implementation). Meeting outcomes are member-order independent —
// pooling is a commutative max/merge — so pinning the tie order only
// fixes the per-member event sequence.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

#include "net/graph.hpp"
#include "obs/obs.hpp"

namespace agentnet {

/// Groups agent indices by location; returns only groups of two or more
/// (singletons have nobody to meet). Groups are ordered by venue node id;
/// members by ascending agent index.
template <typename Agent>
std::vector<std::vector<std::size_t>> colocated_groups(
    const std::vector<Agent>& agents) {
  std::vector<std::vector<std::size_t>> groups;
  std::vector<std::size_t> order(agents.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const auto la = agents[a].location();
    const auto lb = agents[b].location();
    return la < lb || (la == lb && a < b);
  });
  std::size_t i = 0;
  while (i < order.size()) {
    std::size_t j = i + 1;
    while (j < order.size() &&
           agents[order[j]].location() == agents[order[i]].location())
      ++j;
    if (j - i >= 2)
      groups.emplace_back(order.begin() + i, order.begin() + j);
    i = j;
  }
  return groups;
}

/// One planned meeting: the serial plan pass fixes membership, venue and
/// the corruption draw (group-order RNG); pooling then runs
/// group-parallel and commit_meetings replays counters/events.
struct MeetingPlan {
  std::vector<std::size_t> talkers;
  NodeId venue = 0;
  bool corrupted = false;
};

/// The commit pass (serial): each meeting's counters and trace events at
/// step `t`, replayed in group order — the per-meeting sequence of a
/// single-pass loop, so traces stay byte-identical at any thread count.
/// Each talker's kMerge event names the agent by its id, as kMove does.
template <typename Agent>
void commit_meetings(const std::vector<MeetingPlan>& meetings,
                     const std::vector<Agent>& agents, std::size_t t) {
  obs::ScopedPhase commit_phase(obs::Phase::kCommit);
  for (const MeetingPlan& meeting : meetings) {
    if (meeting.corrupted) {
      AGENTNET_COUNT(kExchangesCorrupted);
      AGENTNET_OBS_EVENT(kExchangeCorrupted, t, -1,
                         static_cast<std::int64_t>(meeting.venue),
                         static_cast<std::int64_t>(meeting.talkers.size()));
      continue;
    }
    AGENTNET_COUNT(kAgentMeetings);
    AGENTNET_OBS_EVENT(kMeet, t, -1, static_cast<std::int64_t>(meeting.venue),
                       static_cast<std::int64_t>(meeting.talkers.size()));
    for (std::size_t idx : meeting.talkers) {
      AGENTNET_COUNT(kKnowledgeMerges);
      AGENTNET_OBS_EVENT(kMerge, t, agents[idx].id(),
                         static_cast<std::int64_t>(agents[idx].location()));
    }
  }
}

}  // namespace agentnet
