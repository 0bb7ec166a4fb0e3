// The telemetry codec: one JSON writer, one JSON reader and one group-file
// writer shared by the three streams (docs/OBSERVABILITY.md) — trace lines
// (JSONL and Chrome), metrics lines and the run manifest.
//
// The reader is a cursor over one text. Every failure it reports reads
// "byte N: <what>", N being the offset (from 0) where reading stopped, so
// the tools can print path:line:byte for a bad line.
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace agentnet::obs {

/// Appends JSON objects to a string. `indent` 0 writes one compact line
/// ({"a":1,"b":"x"}); n > 0 puts every member on its own line, n spaces
/// deeper per level, with ": " after each key. Strings escape the quote,
/// the backslash, \n, \t and \r; doubles use std::to_chars' shortest
/// round-trip form, so the bytes are locale-independent and read back
/// bit-exact.
class JsonWriter {
 public:
  explicit JsonWriter(std::string& out, int indent = 0)
      : out_(out), indent_(indent) {}

  /// Opens the top-level object, or a nested one as member `key`.
  void open();
  void open(std::string_view key);
  void close();

  template <std::integral T>
  void field(std::string_view key, T value) {
    char buf[24];
    this->key(key);
    out_.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
  }
  void field(std::string_view key, double value);
  void field(std::string_view key, std::string_view value);

 private:
  void key(std::string_view key);

  std::string& out_;
  int indent_;
  int depth_ = 0;
  bool first_ = true;  ///< The innermost open object has no member yet.
};

/// A cursor over one JSON text. The read functions skip leading
/// whitespace; each returns false on failure, with "byte N: <what>" in
/// the error slot given at construction (when non-null).
class JsonReader {
 public:
  JsonReader(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  std::size_t pos() const { return pos_; }
  void skip_ws();
  /// True when the next non-space byte is `c` (not consumed).
  bool peek(char c);
  /// Consumes `c` when it is the next non-space byte.
  bool take(char c);
  bool expect(char c);
  /// A quoted string with the escapes \" \\ \n \t \r.
  bool string(std::string& out);
  /// The run of number bytes [0-9+-.eE] at the cursor; empty when there
  /// is none. Convert it with from_token.
  std::string_view number();
  /// Only whitespace remains.
  bool end();
  /// One object: for each member, reads its key and calls
  /// member(key, key_offset) with the cursor before the value, which
  /// member reads; member returns false to stop.
  template <typename Member>
  bool object(Member&& member);

  bool fail(std::string_view what) { return fail_at(pos_, what); }
  bool fail_at(std::size_t at, std::string_view what);

 private:
  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

template <typename Member>
bool JsonReader::object(Member&& member) {
  if (!expect('{')) return false;
  if (take('}')) return true;
  do {
    skip_ws();
    const std::size_t key_at = pos_;
    std::string key;
    if (!string(key) || !expect(':') || !member(key, key_at)) return false;
  } while (take(','));
  return take('}') || fail("expected ',' or '}'");
}

/// True when `token` is exactly one T in std::from_chars' syntax.
template <typename T>
bool from_token(std::string_view token, T& out) {
  const char* end = token.data() + token.size();
  const auto result = std::from_chars(token.data(), end, out);
  return result.ec == std::errc() && result.ptr == end;
}

/// One member of a flat line object (the trace and metrics line formats).
struct FlatField {
  std::string key;
  std::string value;  ///< Unquoted string, or the number token.
  bool quoted = false;
  std::size_t key_at = 0;    ///< Byte offset of the key.
  std::size_t value_at = 0;  ///< Byte offset of the value.
};

/// Reads a whole line holding one object of string / number members.
bool read_flat_line(JsonReader& reader, std::vector<FlatField>& fields);

/// Appends one experiment's group to the line stream at `path`. The first
/// group written to a path in this process replaces the file atomically
/// (a crash mid-write leaves no torn file); later groups append in place
/// and fail loudly on short writes, so a bench binary running many
/// experiments yields one file of groups. Calls are serialized, so
/// concurrent experiments never interleave. `emit(os, first)` writes the
/// group; `what` names the stream in errors.
void append_group(const std::string& path, std::string_view what,
                  const std::function<void(std::ostream&, bool first)>& emit);

}  // namespace agentnet::obs
