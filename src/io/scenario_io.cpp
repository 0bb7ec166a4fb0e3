// Format (line oriented, '#' comments allowed between sections):
//
//   agentnet-scenario 1
//   params <node_count> <gateway_count> <placement> <mobile_fraction>
//   bounds <lo.x> <lo.y> <hi.x> <hi.y>
//   radio <node_range> <range_spread> <gateway_boost> <min_scale>
//   battery <capacity> <drain>
//   movement <min_speed> <max_speed> <turn_probability>
//   policy <directed|symmetric-and|symmetric-or>
//   nodes <N>
//   <x> <y> <range> <g|-> <m|->        (N lines: gateway/mobile flags)
//   frames <F>
//   <x y> * N                           (F lines, one frame per line)
#include "io/scenario_io.hpp"

#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/error.hpp"

namespace agentnet {

namespace {

const char* policy_token(LinkPolicy policy) {
  switch (policy) {
    case LinkPolicy::kDirected:
      return "directed";
    case LinkPolicy::kSymmetricAnd:
      return "symmetric-and";
    case LinkPolicy::kSymmetricOr:
      return "symmetric-or";
  }
  return "?";
}

/// Reads the non-blank, non-comment lines of a scenario document and
/// remembers the 1-based number of the last one read, for error messages.
class LineReader {
 public:
  explicit LineReader(std::istream& is) : is_(is) {}

  std::string next() {
    std::string line;
    while (std::getline(is_, line)) {
      ++line_no_;
      const auto first = line.find_first_not_of(" \t\r");
      if (first == std::string::npos) continue;
      if (line[first] == '#') continue;
      return line;
    }
    throw ConfigError("scenario line " + std::to_string(line_no_ + 1) +
                      ": unexpected end of file");
  }

  /// The next line, which must open with `tag`; the stream is left after
  /// the tag.
  std::istringstream tagged(const char* tag) {
    std::istringstream line(next());
    std::string seen;
    line >> seen;
    if (seen != tag)
      fail(std::string("expected section '") + tag + "', got '" + seen + "'");
    return line;
  }

  /// Throws ConfigError naming the last line read.
  [[noreturn]] void fail(const std::string& what) const {
    throw ConfigError("scenario line " + std::to_string(line_no_) + ": " +
                      what);
  }
  void require(bool ok, const char* what) const {
    if (!ok) fail(what);
  }

 private:
  std::istream& is_;
  std::size_t line_no_ = 0;
};

LinkPolicy parse_policy_token(const std::string& name, const LineReader& in) {
  if (name == "directed") return LinkPolicy::kDirected;
  if (name == "symmetric-and") return LinkPolicy::kSymmetricAnd;
  if (name == "symmetric-or") return LinkPolicy::kSymmetricOr;
  in.fail("unknown link policy: " + name);
}

GatewayPlacement parse_placement_token(const std::string& name,
                                       const LineReader& in) {
  if (name == "random") return GatewayPlacement::kRandom;
  if (name == "spread") return GatewayPlacement::kSpread;
  if (name == "perimeter") return GatewayPlacement::kPerimeter;
  in.fail("unknown gateway placement: " + name);
}

/// Feeds TraceMobility::record one parsed frame line per step, so the
/// loader never holds the frames twice. A frame may move only the nodes
/// flagged 'm'.
class FrameReader final : public MobilityModel {
 public:
  FrameReader(LineReader& in, const std::vector<bool>& mobile)
      : in_(in), mobile_(mobile) {}

  void step(std::vector<Vec2>& positions) override {
    std::istringstream line(in_.next());
    for (std::size_t i = 0; i < positions.size(); ++i) {
      Vec2 p;
      line >> p.x >> p.y;
      in_.require(!line.fail(), "bad frame line");
      if (!mobile_[i] && !(p == positions[i]))
        in_.fail("frame moves node " + std::to_string(i) +
                 ", which is not flagged 'm'");
      positions[i] = p;
    }
    line >> std::ws;
    in_.require(line.eof(), "trailing tokens on frame line");
  }
  bool is_stationary(std::size_t node) const override {
    return !mobile_[node];
  }

 private:
  LineReader& in_;
  const std::vector<bool>& mobile_;
};

}  // namespace

void save_scenario(const RoutingScenario& scenario, std::ostream& os) {
  const auto& p = scenario.params();
  os << "agentnet-scenario 1\n" << std::setprecision(17);
  os << "params " << p.node_count << ' ' << p.gateway_count << ' '
     << to_string(p.gateway_placement) << ' ' << p.mobile_fraction << '\n';
  os << "bounds " << p.bounds.lo.x << ' ' << p.bounds.lo.y << ' '
     << p.bounds.hi.x << ' ' << p.bounds.hi.y << '\n';
  os << "radio " << p.node_range << ' ' << p.range_spread << ' '
     << p.gateway_range_boost << ' ' << p.scaling.min_scale << '\n';
  os << "battery " << p.battery.capacity << ' ' << p.battery.drain_per_step
     << '\n';
  os << "movement " << p.movement.min_speed << ' ' << p.movement.max_speed
     << ' ' << p.movement.turn_probability << '\n';
  os << "policy " << policy_token(p.policy) << '\n';
  os << "nodes " << p.node_count << '\n';
  for (std::size_t i = 0; i < p.node_count; ++i) {
    os << scenario.initial_positions()[i].x << ' '
       << scenario.initial_positions()[i].y << ' '
       << scenario.base_ranges()[i] << ' '
       << (scenario.is_gateway()[i] ? 'g' : '-') << ' '
       << (scenario.mobile()[i] ? 'm' : '-') << '\n';
  }
  const TraceMobility& trace = scenario.trace();
  os << "frames " << trace.frames() << '\n';
  for (std::size_t f = 0; f < trace.frames(); ++f) {
    const std::vector<Vec2> frame = trace.frame(f);
    for (std::size_t i = 0; i < frame.size(); ++i)
      os << frame[i].x << ' ' << frame[i].y
         << (i + 1 == frame.size() ? '\n' : ' ');
  }
  AGENTNET_REQUIRE(os.good(), "write failed while saving scenario");
}

RoutingScenario load_scenario(std::istream& is) {
  LineReader in(is);
  {
    std::istringstream header(in.next());
    std::string magic;
    int version = 0;
    header >> magic >> version;
    in.require(magic == "agentnet-scenario" && version == 1,
               "not an agentnet-scenario v1 file");
  }
  RoutingScenarioParams p;
  {
    auto line = in.tagged("params");
    std::string placement;
    line >> p.node_count >> p.gateway_count >> placement >>
        p.mobile_fraction;
    in.require(!line.fail(), "bad params line");
    p.gateway_placement = parse_placement_token(placement, in);
  }
  {
    auto line = in.tagged("bounds");
    line >> p.bounds.lo.x >> p.bounds.lo.y >> p.bounds.hi.x >> p.bounds.hi.y;
    in.require(!line.fail(), "bad bounds line");
  }
  {
    auto line = in.tagged("radio");
    line >> p.node_range >> p.range_spread >> p.gateway_range_boost >>
        p.scaling.min_scale;
    in.require(!line.fail(), "bad radio line");
  }
  {
    auto line = in.tagged("battery");
    line >> p.battery.capacity >> p.battery.drain_per_step;
    in.require(!line.fail(), "bad battery line");
  }
  {
    auto line = in.tagged("movement");
    line >> p.movement.min_speed >> p.movement.max_speed >>
        p.movement.turn_probability;
    in.require(!line.fail(), "bad movement line");
  }
  {
    auto line = in.tagged("policy");
    std::string token;
    line >> token;
    in.require(!line.fail(), "bad policy line");
    p.policy = parse_policy_token(token, in);
  }
  std::size_t node_count = 0;
  {
    auto line = in.tagged("nodes");
    line >> node_count;
    in.require(!line.fail() && node_count == p.node_count,
               "nodes section disagrees with params");
  }
  // Grown line by line: node_count is not trusted to size an allocation.
  std::vector<Vec2> positions;
  std::vector<double> ranges;
  std::vector<bool> is_gateway, mobile;
  for (std::size_t i = 0; i < node_count; ++i) {
    std::istringstream line(in.next());
    Vec2 at;
    double range = 0.0;
    char g = 0, m = 0;
    line >> at.x >> at.y >> range >> g >> m;
    in.require(!line.fail() && (g == 'g' || g == '-') &&
                   (m == 'm' || m == '-'),
               "bad node line");
    positions.push_back(at);
    ranges.push_back(range);
    is_gateway.push_back(g == 'g');
    mobile.push_back(m == 'm');
  }
  std::size_t frame_count = 0;
  {
    auto line = in.tagged("frames");
    line >> frame_count;
    in.require(!line.fail(), "bad frames line");
  }
  p.trace_steps = frame_count;
  FrameReader frames(in, mobile);
  TraceMobility trace = TraceMobility::record(frames, positions, frame_count);
  return RoutingScenario(p, std::move(positions), std::move(ranges),
                         std::move(is_gateway), std::move(mobile),
                         std::move(trace));
}

void save_scenario_file(const RoutingScenario& scenario,
                        const std::string& path) {
  // Temp-then-rename: a crash mid-save never leaves a torn scenario file.
  AtomicFileWriter file(path);
  save_scenario(scenario, file.stream());
  file.commit();
}

RoutingScenario load_scenario_file(const std::string& path) {
  std::ifstream is(path);
  AGENTNET_REQUIRE(is.is_open(), "cannot open for reading: " + path);
  return load_scenario(is);
}

}  // namespace agentnet
