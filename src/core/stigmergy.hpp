// Stigmergy board: node-local footprints.
//
// The paper's contribution is an *inverse* ant trail — "every agent leaves
// behind his footprint on the current node. Agents imprint their next target
// node in the current node ... so that subsequent agents avoid following
// [the] previous one." A footprint therefore lives on the node the agent is
// leaving and names the neighbour it moved to; decision rules *demote*
// footprinted targets instead of seeking them out.
//
// The board is environment state (it belongs to the task, not to any agent)
// and costs O(1) to stamp and O(footprints-per-node) to query, which is what
// the paper means by "negligible overhead".
#pragma once

#include <cstddef>
#include <vector>

#include "net/graph.hpp"
#include "snapshot/bytes.hpp"

namespace agentnet {

class StigmergyBoard {
 public:
  /// `horizon`: footprints older than this many steps are ignored (and
  /// reclaimed); 0 means footprints never expire. `capacity_per_node`
  /// bounds memory per node; the oldest footprint is evicted first. The
  /// default of 1 is the paper's rule — a node holds the single most
  /// recent footprint ("the agent did not use its *last* path"), so only
  /// the immediately preceding choice is avoided, not the whole history.
  explicit StigmergyBoard(std::size_t node_count, std::size_t horizon = 0,
                          std::size_t capacity_per_node = 1);

  std::size_t node_count() const { return boards_.size(); }
  std::size_t horizon() const { return horizon_; }

  /// Records "an agent left `at` toward `target` at time `now`".
  void stamp(NodeId at, NodeId target, std::size_t now);

  /// True when some unexpired footprint at `at` points to `target`.
  bool marked(NodeId at, NodeId target, std::size_t now) const;

  /// Unexpired footprints currently stored at `at`.
  std::size_t footprint_count(NodeId at, std::size_t now) const;

  /// Checkpoint support: every node's footprint list, in stored order
  /// (eviction order matters — the oldest footprint goes first).
  void save_state(snapshot::ByteWriter& w) const {
    w.size(boards_.size());
    for (const auto& board : boards_) {
      w.size(board.size());
      for (const Footprint& fp : board) {
        w.scalar(fp.target);
        w.size(fp.step);
      }
    }
  }
  void load_state(snapshot::ByteReader& r) {
    const std::size_t n = r.counted(8);
    AGENTNET_REQUIRE(n == boards_.size(),
                     "snapshot: stigmergy board count mismatch");
    for (auto& board : boards_) {
      const std::size_t m = r.counted(16);
      board.resize(m);
      for (Footprint& fp : board) {
        fp.target = r.scalar<NodeId>();
        fp.step = r.size();
      }
    }
  }

 private:
  struct Footprint {
    NodeId target = kInvalidNode;
    std::size_t step = 0;
  };

  bool expired(const Footprint& fp, std::size_t now) const {
    return horizon_ != 0 && now > fp.step + horizon_;
  }

  std::vector<std::vector<Footprint>> boards_;
  std::size_t horizon_;
  std::size_t capacity_;
};

}  // namespace agentnet
