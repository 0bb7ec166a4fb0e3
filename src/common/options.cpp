#include "common/options.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <exception>
#include <sstream>

#include "common/error.hpp"

namespace agentnet {

namespace {

/// `read` (std::stoll or std::stod) must consume all of `text`, to a
/// finite value in [min, max]; `kind` names the grammar in the error.
template <typename T, typename Read>
T parse_number(std::string_view what, const std::string& text, T min, T max,
               const char* kind, Read read) {
  T out{};
  std::size_t pos = std::string::npos;
  try {
    out = read(text, &pos);
  } catch (const std::exception&) {
    // pos stays npos: not a number of this kind, or out of its type
  }
  if (pos != text.size() || !std::isfinite(static_cast<double>(out)))
    throw ConfigError(std::string(what) + " is not " + kind + ": " + text);
  if (out < min || out > max) {
    std::ostringstream os;
    os << what << " must be ";
    // A max at or past int64's (kKnobNoMax) is no bound.
    if (max >= static_cast<T>(std::numeric_limits<std::int64_t>::max()))
      os << ">= " << min;
    else
      os << "in [" << min << ", " << max << "]";
    os << ", got " << text;
    throw ConfigError(os.str());
  }
  return out;
}

}  // namespace

std::int64_t parse_int(std::string_view what, const std::string& text,
                       std::int64_t min, std::int64_t max) {
  return parse_number(what, text, min, max, "an integer",
                      [](const std::string& s, std::size_t* pos) {
                        return static_cast<std::int64_t>(std::stoll(s, pos));
                      });
}

double parse_double(std::string_view what, const std::string& text,
                    double min, double max) {
  return parse_number(
      what, text, min, max, "a finite number",
      [](const std::string& s, std::size_t* pos) { return std::stod(s, pos); });
}

bool parse_bool(std::string_view what, const std::string& text) {
  std::string s = text;
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (s == "1" || s == "true" || s == "yes" || s == "on") return true;
  if (s == "0" || s == "false" || s == "no" || s == "off") return false;
  throw ConfigError(std::string(what) + " is not a boolean: " + text);
}

Options Options::parse(int argc, const char* const* argv) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  return parse(args);
}

Options Options::parse(const std::vector<std::string>& args) {
  Options options;
  for (const auto& arg : args) {
    const auto eq = arg.find('=');
    std::string key = eq == std::string::npos ? arg : arg.substr(0, eq);
    std::string value = eq == std::string::npos ? "true" : arg.substr(eq + 1);
    AGENTNET_REQUIRE(!key.empty(), "empty option key in: " + arg);
    AGENTNET_REQUIRE(!options.values_.contains(key),
                     "option given twice: " + key);
    options.values_.emplace(std::move(key), std::move(value));
  }
  return options;
}

bool Options::has(const std::string& key) const {
  return values_.contains(key);
}

std::string Options::get_string(const std::string& key,
                                std::string fallback) {
  queried_.insert(key);
  const auto it = values_.find(key);
  return it == values_.end() ? std::move(fallback) : it->second;
}

std::int64_t Options::get_int(const std::string& key, std::int64_t fallback,
                              std::int64_t min, std::int64_t max) {
  queried_.insert(key);
  const auto it = values_.find(key);
  return it == values_.end() ? fallback
                             : parse_int("option " + key, it->second, min, max);
}

double Options::get_double(const std::string& key, double fallback) {
  queried_.insert(key);
  const auto it = values_.find(key);
  return it == values_.end()
             ? fallback
             : parse_double("option " + key, it->second,
                            std::numeric_limits<double>::lowest(),
                            std::numeric_limits<double>::max());
}

bool Options::get_bool(const std::string& key, bool fallback) {
  queried_.insert(key);
  const auto it = values_.find(key);
  return it == values_.end() ? fallback
                             : parse_bool("option " + key, it->second);
}

std::vector<std::string> Options::unrecognized() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_)
    if (!queried_.contains(key)) out.push_back(key);
  return out;
}

void Options::finish() const {
  const auto stray = unrecognized();
  if (stray.empty()) return;
  std::string message = "unrecognised option(s):";
  for (const auto& key : stray) message += " " + key;
  throw ConfigError(message);
}

}  // namespace agentnet
