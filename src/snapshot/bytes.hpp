// Bounds-checked little-endian byte streams for the snapshot format.
//
// ByteWriter appends scalars to a growable buffer; ByteReader consumes the
// same encoding and throws ConfigError — with the offending byte offset —
// on any truncated or malformed read, so a damaged checkpoint is rejected
// loudly instead of invoking UB. The encoding is fixed-width
// little-endian, independent of host endianness and padding, which is what
// makes a snapshot written on one machine byte-identical on another.
//
// Header-only and dependent only on common/error.hpp, so any layer
// (including obs) may include it without a link-time dependency.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.hpp"

namespace agentnet::snapshot {

/// CRC-32 (IEEE 802.3, reflected) over a byte range; table-driven.
inline std::uint32_t crc32(const std::uint8_t* data, std::size_t len,
                           std::uint32_t seed = 0) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < len; ++i)
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  return ~crc;
}

class ByteWriter {
 public:
  /// Makes room for `n` more bytes, so a writer that knows its encoded
  /// size up front grows its buffer once instead of by doubling.
  void reserve(std::size_t n) { bytes_.reserve(bytes_.size() + n); }
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void size(std::size_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& s) {
    size(s.size());
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }
  void raw(const std::uint8_t* data, std::size_t len) {
    bytes_.insert(bytes_.end(), data, data + len);
  }
  void blob(const std::vector<std::uint8_t>& b) {
    size(b.size());
    raw(b.data(), b.size());
  }

  /// Arithmetic element vector, length-prefixed.
  template <typename T>
  void pod_vec(const std::vector<T>& v) {
    static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>);
    size(v.size());
    for (const T& x : v) scalar(x);
  }

  template <typename T>
  void scalar(T x) {
    if constexpr (std::is_same_v<T, bool>) {
      boolean(x);
    } else if constexpr (std::is_same_v<T, double>) {
      f64(x);
    } else if constexpr (std::is_enum_v<T>) {
      u64(static_cast<std::uint64_t>(x));
    } else {
      static_assert(std::is_integral_v<T>);
      u64(static_cast<std::uint64_t>(x));
    }
  }

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t len)
      : data_(data), len_(len) {}
  explicit ByteReader(const std::vector<std::uint8_t>& b)
      : ByteReader(b.data(), b.size()) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::size_t size() { return static_cast<std::size_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() {
    const std::uint8_t v = u8();
    AGENTNET_REQUIRE(v <= 1, "snapshot: bad boolean at byte " +
                                 std::to_string(pos_ - 1));
    return v != 0;
  }
  std::string str() {
    const std::size_t n = counted(1);
    need(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }
  std::vector<std::uint8_t> blob() {
    const std::size_t n = counted(1);
    need(n);
    std::vector<std::uint8_t> b(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return b;
  }

  /// A view of the next `n` bytes (bounds-checked), advancing past them.
  /// The pointer aliases the backing buffer — it lets the container layer
  /// CRC and sub-parse a chunk without copying it.
  const std::uint8_t* raw(std::size_t n) {
    need(n);
    const std::uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  template <typename T>
  void pod_vec(std::vector<T>& v) {
    static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>);
    const std::size_t n = counted(sizeof(T) == 1 ? 1 : 8);
    v.clear();
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) v.push_back(scalar<T>());
  }
  /// A pod_vec whose length must be exactly `n` (see exact_count).
  template <typename T>
  void pod_vec(std::vector<T>& v, std::size_t n, const char* what) {
    v.resize(exact_count(n, what));
    for (std::size_t i = 0; i < n; ++i) v[i] = scalar<T>();
  }

  template <typename T>
  T scalar() {
    if constexpr (std::is_same_v<T, bool>) {
      return boolean();
    } else if constexpr (std::is_same_v<T, double>) {
      return f64();
    } else {
      const std::uint64_t raw = u64();
      const T v = static_cast<T>(raw);
      AGENTNET_REQUIRE(static_cast<std::uint64_t>(v) == raw,
                       "snapshot: value out of range at byte " +
                           std::to_string(pos_ - 8));
      return v;
    }
  }

  /// A count that must leave at least `element_size` bytes per element in
  /// the stream — rejects "giant count" corruption before any allocation.
  std::size_t counted(std::size_t element_size) {
    const std::uint64_t v = u64();
    AGENTNET_REQUIRE(
        v <= (len_ - pos_) / (element_size == 0 ? 1 : element_size),
        "snapshot: count " + std::to_string(v) +
            " overruns remaining bytes at byte " + std::to_string(pos_ - 8));
    return static_cast<std::size_t>(v);
  }

  /// A count that must equal `n`, a length the reader already knows from
  /// config (such as the node count). A mismatch names `what` and the
  /// byte offset, and is rejected before the caller overwrites anything.
  std::size_t exact_count(std::size_t n, const char* what) {
    const std::uint64_t v = u64();
    AGENTNET_REQUIRE(v == n, std::string("snapshot: ") + what +
                                 " of length " + std::to_string(v) +
                                 ", expected " + std::to_string(n) +
                                 " at byte " + std::to_string(pos_ - 8));
    return n;
  }

  std::size_t position() const { return pos_; }
  std::size_t remaining() const { return len_ - pos_; }
  bool done() const { return pos_ == len_; }

 private:
  void need(std::size_t n) {
    AGENTNET_REQUIRE(n <= len_ - pos_,
                     "snapshot: truncated stream at byte " +
                         std::to_string(pos_) + " (need " +
                         std::to_string(n) + " more of " +
                         std::to_string(len_ - pos_) + " left)");
  }

  const std::uint8_t* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
};

}  // namespace agentnet::snapshot
