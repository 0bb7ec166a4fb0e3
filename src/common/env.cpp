#include "common/env.hpp"

#include <algorithm>
#include <cstdlib>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/options.hpp"

extern char** environ;

namespace agentnet {

namespace {

/// The row of `knob`, which must be of `kind`, and its value; nullopt when
/// the variable is unset or empty. Each name is a literal, so NUL-ended.
std::optional<std::string> raw(Knob knob, KnobKind kind) {
  AGENTNET_ASSERT(knob_spec(knob).kind == kind);
  const char* v = std::getenv(knob_spec(knob).name.data());
  if (v == nullptr || *v == '\0') return std::nullopt;
  return std::string(v);
}

std::string variable(Knob knob) {
  return "environment variable " + std::string(knob_spec(knob).name);
}

/// Levenshtein distance, one row at a time.
std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diagonal = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t above = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         diagonal + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diagonal = above;
    }
  }
  return row[b.size()];
}

}  // namespace

std::optional<std::string> knob_string(Knob knob) {
  const KnobKind kind = knob_spec(knob).kind;
  AGENTNET_ASSERT(kind == KnobKind::kString || kind == KnobKind::kPath);
  return raw(knob, kind);
}

std::int64_t knob_int(Knob knob, std::int64_t fallback) {
  const auto v = raw(knob, KnobKind::kInt);
  const KnobSpec& spec = knob_spec(knob);
  return v ? parse_int(variable(knob), *v, spec.min, spec.max) : fallback;
}

double knob_double(Knob knob, double fallback) {
  const auto v = raw(knob, KnobKind::kDouble);
  const KnobSpec& spec = knob_spec(knob);
  return v ? parse_double(variable(knob), *v, static_cast<double>(spec.min),
                          static_cast<double>(spec.max))
           : fallback;
}

bool knob_bool(Knob knob, bool fallback) {
  const auto v = raw(knob, KnobKind::kBool);
  return v ? parse_bool(variable(knob), *v) : fallback;
}

void check_environment() {
  for (char** entry = environ; entry != nullptr && *entry != nullptr;
       ++entry) {
    const std::string_view var(*entry);
    if (!var.starts_with("AGENTNET_")) continue;
    const std::string_view name = var.substr(0, var.find('='));
    const auto known = [&](const KnobSpec& spec) { return spec.name == name; };
    if (std::any_of(std::begin(kKnobs), std::end(kKnobs), known)) continue;
    const auto distance = [&](const KnobSpec& spec) {
      return edit_distance(name, spec.name);
    };
    const KnobSpec& nearest = *std::min_element(
        std::begin(kKnobs), std::end(kKnobs),
        [&](const KnobSpec& a, const KnobSpec& b) {
          return distance(a) < distance(b);
        });
    throw ConfigError("unknown environment variable " + std::string(name) +
                      " (nearest registered name: " +
                      std::string(nearest.name) +
                      "; see docs/REPRODUCING.md)");
  }
}

int bench_runs(int fallback) {
  check_environment();
  return static_cast<int>(knob_int(Knob::kRuns, fallback));
}

bool bench_full() {
  check_environment();
  return knob_bool(Knob::kFull, false);
}

std::size_t default_threads() {
  const std::int64_t configured = knob_int(Knob::kThreads, 0);
  if (configured > 0) return static_cast<std::size_t>(configured);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

}  // namespace agentnet
