// Node mobility models.
//
// The dynamic-routing scenario fixes roughly half the nodes (gateways are
// always stationary) and moves the rest with *random* per-node velocities
// (the paper's change vs. Kramer et al.'s constant velocity). The paper
// also runs every parameter setting against "the same configuration and
// movement path of nodes". TraceMobility serves that: it records one
// model's output once and replays it in every world built from the
// scenario. The recording is immutable and shared, so a copy of a trace
// costs a pointer and a playback cursor. It keeps only what moves: the
// initial positions once, then one row per frame holding the mobile
// nodes' positions, which replay writes in place.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "geom/vec2.hpp"
#include "snapshot/bytes.hpp"

namespace agentnet {

/// Advances node positions one simulation step at a time. Models own all
/// per-node kinematic state; positions are the shared truth they mutate.
class MobilityModel {
 public:
  virtual ~MobilityModel() = default;

  /// Moves nodes one step. `positions` has one entry per node and is
  /// updated in place; implementations must keep positions inside the
  /// arena they were constructed with.
  virtual void step(std::vector<Vec2>& positions) = 0;

  /// True if the model will never move `node`.
  virtual bool is_stationary(std::size_t node) const = 0;

  /// Checkpoint support: per-node kinematic state and the model's RNG.
  /// Config-derived members (bounds, mobile mask, params) are not carried —
  /// the model is constructed normally before load_state overwrites the
  /// evolving state. Stateless models keep the no-op default.
  /// state_bytes() is what save_state writes, so a writer can reserve it.
  virtual std::size_t state_bytes() const { return 0; }
  virtual void save_state(snapshot::ByteWriter&) const {}
  virtual void load_state(snapshot::ByteReader&) {}
};

/// Nothing moves (the network-mapping scenario).
class StationaryMobility final : public MobilityModel {
 public:
  void step(std::vector<Vec2>&) override {}
  bool is_stationary(std::size_t) const override { return true; }
};

/// Random-direction model with wall bounce. Each mobile node gets a speed
/// drawn uniformly from [min_speed, max_speed] (per-node random velocity)
/// and a random heading; headings re-randomise on wall contact and with a
/// small per-step turn probability so paths are not billiard-regular.
class RandomDirectionMobility final : public MobilityModel {
 public:
  struct Params {
    double min_speed = 0.5;
    double max_speed = 2.0;
    double turn_probability = 0.05;  ///< Chance per step of a new heading.
  };

  /// `mobile[i]` selects which nodes move; the rest are pinned.
  RandomDirectionMobility(Aabb bounds, std::vector<bool> mobile,
                          Params params, Rng rng);

  void step(std::vector<Vec2>& positions) override;
  bool is_stationary(std::size_t node) const override;
  double speed(std::size_t node) const;

  std::size_t state_bytes() const override {
    return 8 + 8 * speeds_.size() + 8 + 16 * headings_.size() +
           Rng::kStateBytes + 1;
  }
  void save_state(snapshot::ByteWriter& w) const override {
    w.pod_vec(speeds_);
    w.size(headings_.size());
    for (const Vec2& h : headings_) {
      w.f64(h.x);
      w.f64(h.y);
    }
    rng_.save_state(w);
    w.boolean(initialised_);
  }
  void load_state(snapshot::ByteReader& r) override {
    r.pod_vec(speeds_, mobile_.size(), "mobility speeds");
    r.exact_count(mobile_.size(), "mobility headings");
    for (Vec2& h : headings_) {
      h.x = r.f64();
      h.y = r.f64();
    }
    rng_.load_state(r);
    initialised_ = r.boolean();
  }

 private:
  Aabb bounds_;
  std::vector<bool> mobile_;
  std::vector<std::uint32_t> movers_;  // the mobile nodes, ascending
  std::vector<double> speeds_;
  std::vector<Vec2> headings_;  // unit vectors
  Params params_;
  Rng rng_;
  bool initialised_ = false;
};

/// Replays a pre-recorded movement script. Construct via `record`, which
/// runs `model` for `steps` steps from `initial` and stores each frame's
/// mobile-node positions; replaying past the end holds the final frame
/// (the network freezes). Copies share one immutable recording and keep
/// their own cursor.
class TraceMobility final : public MobilityModel {
 public:
  /// An empty trace (zero nodes, zero frames); assign the result of
  /// record() before use.
  TraceMobility() = default;

  /// Throws ConfigError if `model` moves a node it reports as stationary:
  /// only the other nodes' positions are recorded.
  static TraceMobility record(MobilityModel& model, std::vector<Vec2> initial,
                              std::size_t steps);

  /// Restarts playback from frame zero (fresh run, same movements).
  void reset() { cursor_ = 0; }

  /// Writes the next frame's mobile-node positions into `positions`; the
  /// stationary entries are left as they are.
  void step(std::vector<Vec2>& positions) override;
  bool is_stationary(std::size_t node) const override;

  std::size_t node_count() const { return recording().initial.size(); }
  std::size_t frames() const { return recording().frames.size(); }
  /// All node positions after i + 1 steps, materialised.
  std::vector<Vec2> frame(std::size_t i) const;
  const std::vector<Vec2>& initial() const { return recording().initial; }
  /// The mobile nodes, ascending: mover_frame(i)[k] is node movers()[k].
  std::span<const std::uint32_t> movers() const {
    return recording().movers;
  }
  std::span<const Vec2> mover_frame(std::size_t i) const;

  /// Only the playback cursor — the recorded frames are reconstructed from
  /// config (same model, same seed) before load_state runs.
  std::size_t state_bytes() const override { return 8; }
  void save_state(snapshot::ByteWriter& w) const override {
    w.size(cursor_);
  }
  void load_state(snapshot::ByteReader& r) override { cursor_ = r.size(); }

 private:
  struct Recording {
    std::vector<Vec2> initial;
    std::vector<bool> stationary;
    std::vector<std::uint32_t> movers;
    /// frames[t][k]: node movers[k] after t + 1 steps. One row per frame,
    /// not one flat array: rows stay under glibc's mmap ceiling (32 MiB)
    /// and are recycled through the heap when scenarios are rebuilt,
    /// where a large flat array is mapped and faulted in afresh.
    std::vector<std::vector<Vec2>> frames;
  };
  const Recording& recording() const;

  std::shared_ptr<const Recording> recording_;
  std::size_t cursor_ = 0;
};

/// Uniform random node placement inside `bounds`.
std::vector<Vec2> random_positions(std::size_t node_count, Aabb bounds,
                                   Rng& rng);

}  // namespace agentnet
