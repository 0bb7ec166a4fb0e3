// Growable dense bitset with popcount and bulk union — the representation
// behind agents' edge-knowledge stores. Agents index it by edge id (see
// core/edge_index.hpp), so a store is one bit per arc the run has seen and
// a whole-knowledge merge is a short run of OR instructions. The set grows
// with the index: bits past size() read as clear, and a merge with a
// longer operand extends this one.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "snapshot/bytes.hpp"

namespace agentnet {

class DenseBitset {
 public:
  DenseBitset() = default;
  explicit DenseBitset(std::size_t bit_count)
      : bit_count_(bit_count), words_(word_count(bit_count), 0) {}

  std::size_t size() const { return bit_count_; }

  /// Bits past size() read as clear.
  bool test(std::size_t i) const {
    return i < bit_count_ && ((words_[i >> 6] >> (i & 63)) & 1u);
  }

  /// Sets bit i; returns true when the bit was previously clear.
  bool set(std::size_t i) {
    AGENTNET_ASSERT(i < bit_count_);
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    std::uint64_t& w = words_[i >> 6];
    if (w & mask) return false;
    w |= mask;
    ++count_;
    return true;
  }

  void reset(std::size_t i) {
    AGENTNET_ASSERT(i < bit_count_);
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    std::uint64_t& w = words_[i >> 6];
    if (w & mask) {
      w &= ~mask;
      --count_;
    }
  }

  /// Extends the set to `bit_count` bits, the new ones clear. Never
  /// shrinks.
  void grow(std::size_t bit_count) {
    if (bit_count <= bit_count_) return;
    bit_count_ = bit_count;
    words_.resize(word_count(bit_count), 0);
  }

  /// Number of set bits (tracked incrementally; O(1)).
  std::size_t count() const { return count_; }

  /// this |= other, first growing this to other's size. Returns bits newly
  /// set.
  std::size_t merge(const DenseBitset& other) {
    grow(other.bit_count_);
    std::size_t added = 0;
    for (std::size_t k = 0; k < other.words_.size(); ++k) {
      const std::uint64_t before = words_[k];
      const std::uint64_t after = before | other.words_[k];
      if (after != before) {
        added += static_cast<std::size_t>(std::popcount(after ^ before));
        words_[k] = after;
      }
    }
    count_ += added;
    return added;
  }

  /// Number of bits set in (this ∩ other).
  std::size_t intersection_count(const DenseBitset& other) const {
    const std::size_t shared = std::min(words_.size(), other.words_.size());
    std::size_t n = 0;
    for (std::size_t k = 0; k < shared; ++k)
      n += static_cast<std::size_t>(
          std::popcount(words_[k] & other.words_[k]));
    return n;
  }

  /// Calls fn(i) for every set bit, ascending.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t k = 0; k < words_.size(); ++k)
      for (std::uint64_t w = words_[k]; w != 0; w &= w - 1)
        fn(k * 64 + static_cast<std::size_t>(std::countr_zero(w)));
  }

  void clear() {
    for (auto& w : words_) w = 0;
    count_ = 0;
  }

  friend bool operator==(const DenseBitset&, const DenseBitset&) = default;

  /// Checkpoint support. load_state recomputes the popcount rather than
  /// trusting the stream, so a corrupted word can never desync count(),
  /// and rejects set bits past the recorded size.
  void save_state(snapshot::ByteWriter& w) const {
    w.size(bit_count_);
    w.pod_vec(words_);
  }
  void load_state(snapshot::ByteReader& r) {
    const std::size_t at = r.position();
    bit_count_ = r.size();
    r.pod_vec(words_);
    AGENTNET_REQUIRE(words_.size() == word_count(bit_count_),
                     "snapshot: bitset word count mismatch at byte " +
                         std::to_string(at));
    AGENTNET_REQUIRE(bit_count_ % 64 == 0 || words_.empty() ||
                         (words_.back() >> (bit_count_ % 64)) == 0,
                     "snapshot: bitset has bits past its size at byte " +
                         std::to_string(at));
    count_ = 0;
    for (std::uint64_t w64 : words_)
      count_ += static_cast<std::size_t>(std::popcount(w64));
  }

 private:
  static std::size_t word_count(std::size_t bits) { return (bits + 63) / 64; }

  std::size_t bit_count_ = 0;
  std::vector<std::uint64_t> words_;
  std::size_t count_ = 0;
};

}  // namespace agentnet
