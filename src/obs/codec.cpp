#include "obs/codec.hpp"

#include <cctype>
#include <fstream>
#include <mutex>
#include <set>

#include "common/atomic_file.hpp"
#include "common/error.hpp"

namespace agentnet::obs {

namespace {

void append_escaped(std::string& out, std::string_view value) {
  out += '"';
  for (const char c : value) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        out += c;
    }
  }
  out += '"';
}

}  // namespace

void JsonWriter::open() {
  out_ += '{';
  ++depth_;
  first_ = true;
}

void JsonWriter::open(std::string_view key) {
  this->key(key);
  open();
}

void JsonWriter::close() {
  --depth_;
  if (indent_ > 0 && !first_) {
    out_ += '\n';
    out_.append(static_cast<std::size_t>(depth_ * indent_), ' ');
  }
  out_ += '}';
  first_ = false;  // the closed object was a member of its parent
}

void JsonWriter::key(std::string_view key) {
  if (!first_) out_ += ',';
  first_ = false;
  if (indent_ > 0) {
    out_ += '\n';
    out_.append(static_cast<std::size_t>(depth_ * indent_), ' ');
  }
  append_escaped(out_, key);
  out_ += indent_ > 0 ? ": " : ":";
}

void JsonWriter::field(std::string_view key, double value) {
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof buf, value);
  AGENTNET_ASSERT(result.ec == std::errc());
  this->key(key);
  out_.append(buf, result.ptr);
}

void JsonWriter::field(std::string_view key, std::string_view value) {
  this->key(key);
  append_escaped(out_, value);
}

void JsonReader::skip_ws() {
  while (pos_ < text_.size() &&
         std::isspace(static_cast<unsigned char>(text_[pos_])))
    ++pos_;
}

bool JsonReader::peek(char c) {
  skip_ws();
  return pos_ < text_.size() && text_[pos_] == c;
}

bool JsonReader::take(char c) {
  if (!peek(c)) return false;
  ++pos_;
  return true;
}

bool JsonReader::expect(char c) {
  return take(c) || fail(std::string("expected '") + c + "'");
}

bool JsonReader::string(std::string& out) {
  if (!expect('"')) return false;
  out.clear();
  while (pos_ < text_.size() && text_[pos_] != '"') {
    char c = text_[pos_++];
    if (c == '\\' && pos_ < text_.size()) {
      switch (text_[pos_]) {
        case '"':
        case '\\':
          c = text_[pos_];
          break;
        case 'n':
          c = '\n';
          break;
        case 't':
          c = '\t';
          break;
        case 'r':
          c = '\r';
          break;
        default:
          return fail("unknown escape");
      }
      ++pos_;
    }
    out += c;
  }
  if (pos_ >= text_.size()) return fail("unterminated string");
  ++pos_;
  return true;
}

std::string_view JsonReader::number() {
  skip_ws();
  const std::size_t start = pos_;
  while (pos_ < text_.size() &&
         (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
          text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
          text_[pos_] == 'e' || text_[pos_] == 'E'))
    ++pos_;
  return text_.substr(start, pos_ - start);
}

bool JsonReader::end() {
  skip_ws();
  return pos_ == text_.size() || fail("trailing characters after '}'");
}

bool JsonReader::fail_at(std::size_t at, std::string_view what) {
  if (error_) {
    *error_ = "byte " + std::to_string(at) + ": ";
    *error_ += what;
  }
  return false;
}

bool read_flat_line(JsonReader& reader, std::vector<FlatField>& fields) {
  return reader.object([&](std::string& key, std::size_t key_at) {
    FlatField field;
    field.key = std::move(key);
    field.key_at = key_at;
    reader.skip_ws();
    field.value_at = reader.pos();
    field.quoted = reader.peek('"');
    if (field.quoted) {
      if (!reader.string(field.value)) return false;
    } else {
      field.value = reader.number();
      if (field.value.empty())
        return reader.fail("expected number or string value");
    }
    fields.push_back(std::move(field));
    return true;
  }) && reader.end();
}

void append_group(const std::string& path, std::string_view what,
                  const std::function<void(std::ostream&, bool)>& emit) {
  static std::mutex mutex;
  static std::set<std::string>* opened = new std::set<std::string>();
  const std::lock_guard<std::mutex> lock(mutex);
  const bool first = opened->insert(path).second;
  const std::string name = std::string(what) + " file " + path;
  if (first) {
    AtomicFileWriter file(path);
    emit(file.stream(), true);
    file.commit();
    return;
  }
  // Appends cannot rename-over: that would drop the earlier groups.
  std::ofstream os(path, std::ios::app);
  AGENTNET_REQUIRE(os.is_open(), "cannot write " + name);
  emit(os, false);
  os.flush();
  AGENTNET_REQUIRE(os.good(), "error while writing " + name);
}

}  // namespace agentnet::obs
