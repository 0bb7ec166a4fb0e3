// File format (line oriented, '#' comments allowed between sections):
//
//   agentnet-network 1
//   bounds <lo.x> <lo.y> <hi.x> <hi.y>
//   policy <directed|symmetric-and|symmetric-or>
//   nodes <N>
//   <x> <y> <base_range>            (N lines, node id = line index)
//   edges <M>
//   <from> <to>                     (M lines)
#include "io/network_io.hpp"

#include <fstream>
#include <iomanip>
#include <sstream>

#include "common/atomic_file.hpp"
#include "common/error.hpp"

namespace agentnet {

namespace {

// Sanity ceiling for counts read from a file: large enough for any real
// scenario, small enough that a corrupted count line fails fast instead of
// attempting a multi-gigabyte allocation.
constexpr std::size_t kMaxFileNodes = 100'000'000;

const char* policy_name(LinkPolicy policy) {
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

LinkPolicy parse_policy(const std::string& name) {
  if (name == "directed") return LinkPolicy::kDirected;
  if (name == "symmetric-and") return LinkPolicy::kSymmetricAnd;
  if (name == "symmetric-or") return LinkPolicy::kSymmetricOr;
  throw ConfigError("unknown link policy in network file: " + name);
}

/// Hands out non-comment, non-blank lines and remembers the 1-based line
/// number of the last one, so every parse error can say where it happened.
class LineReader {
 public:
  explicit LineReader(std::istream& is) : is_(is) {}

  /// Next payload line; throws at EOF naming the last line seen.
  std::string next(const char* expected) {
    std::string line;
    while (std::getline(is_, line)) {
      ++line_no_;
      const auto first = line.find_first_not_of(" \t\r");
      if (first == std::string::npos) continue;
      if (line[first] == '#') continue;
      return line;
    }
    throw ConfigError("network file truncated after line " +
                      std::to_string(line_no_) + " (expected " + expected +
                      ")");
  }

  /// "line N" for the line last returned by next().
  std::string where() const { return "line " + std::to_string(line_no_); }

 private:
  std::istream& is_;
  std::size_t line_no_ = 0;
};

}  // namespace

void save_network(const GeneratedNetwork& net, std::ostream& os) {
  os << "agentnet-network 1\n";
  os << std::setprecision(17);
  os << "bounds " << net.bounds.lo.x << ' ' << net.bounds.lo.y << ' '
     << net.bounds.hi.x << ' ' << net.bounds.hi.y << '\n';
  os << "policy " << policy_name(net.policy) << '\n';
  os << "nodes " << net.positions.size() << '\n';
  for (std::size_t i = 0; i < net.positions.size(); ++i)
    os << net.positions[i].x << ' ' << net.positions[i].y << ' '
       << net.base_ranges[i] << '\n';
  const auto edges = net.graph.edges();
  os << "edges " << edges.size() << '\n';
  for (const Edge& e : edges) os << e.from << ' ' << e.to << '\n';
  AGENTNET_REQUIRE(os.good(), "write failed while saving network");
}

GeneratedNetwork load_network(std::istream& is) {
  // Every rejection names the offending line ("bad node line at line 7")
  // so a hand-edited or truncated file can be fixed without bisection.
  GeneratedNetwork net;
  LineReader reader(is);
  {
    std::istringstream header(reader.next("header"));
    std::string magic;
    int version = 0;
    header >> magic >> version;
    AGENTNET_REQUIRE(magic == "agentnet-network" && version == 1,
                     "not an agentnet-network v1 file (at " +
                         reader.where() + ")");
  }
  {
    std::istringstream line(reader.next("bounds"));
    std::string tag;
    line >> tag >> net.bounds.lo.x >> net.bounds.lo.y >> net.bounds.hi.x >>
        net.bounds.hi.y;
    AGENTNET_REQUIRE(tag == "bounds" && !line.fail(),
                     "bad bounds line at " + reader.where());
    AGENTNET_REQUIRE(net.bounds.width() > 0 && net.bounds.height() > 0,
                     "bounds must have positive area at " + reader.where());
  }
  {
    std::istringstream line(reader.next("policy"));
    std::string tag, name;
    line >> tag >> name;
    AGENTNET_REQUIRE(tag == "policy" && !line.fail(),
                     "bad policy line at " + reader.where());
    net.policy = parse_policy(name);
  }
  std::size_t node_count = 0;
  {
    std::istringstream line(reader.next("node count"));
    std::string tag;
    line >> tag >> node_count;
    AGENTNET_REQUIRE(tag == "nodes" && !line.fail() && node_count > 0,
                     "bad nodes line at " + reader.where());
    // A corrupted count must not drive a giant allocation: every node
    // still needs its own line in the stream, and positions/ranges cost
    // 24 bytes each, so anything past ~100M nodes is garbage, not data.
    AGENTNET_REQUIRE(node_count <= kMaxFileNodes,
                     "implausible node count " + std::to_string(node_count) +
                         " at " + reader.where());
  }
  net.positions.resize(node_count);
  net.base_ranges.resize(node_count);
  for (std::size_t i = 0; i < node_count; ++i) {
    std::istringstream line(reader.next("node record"));
    line >> net.positions[i].x >> net.positions[i].y >> net.base_ranges[i];
    AGENTNET_REQUIRE(!line.fail(), "bad node line at " + reader.where());
    AGENTNET_REQUIRE(net.base_ranges[i] > 0.0,
                     "node range must be positive at " + reader.where());
  }
  std::size_t edge_count = 0;
  {
    std::istringstream line(reader.next("edge count"));
    std::string tag;
    line >> tag >> edge_count;
    AGENTNET_REQUIRE(tag == "edges" && !line.fail(),
                     "bad edges line at " + reader.where());
    AGENTNET_REQUIRE(edge_count <= node_count * node_count,
                     "implausible edge count " + std::to_string(edge_count) +
                         " at " + reader.where());
  }
  net.graph = Graph(node_count);
  for (std::size_t i = 0; i < edge_count; ++i) {
    std::istringstream line(reader.next("edge record"));
    NodeId u = kInvalidNode, v = kInvalidNode;
    line >> u >> v;
    AGENTNET_REQUIRE(!line.fail() && u < node_count && v < node_count,
                     "bad edge line at " + reader.where());
    AGENTNET_REQUIRE(net.graph.add_edge(u, v),
                     "duplicate or self-loop edge at " + reader.where());
  }
  return net;
}

void save_network_file(const GeneratedNetwork& net, const std::string& path) {
  // Temp-then-rename: a crash mid-save never leaves a torn network file.
  AtomicFileWriter file(path);
  save_network(net, file.stream());
  file.commit();
}

GeneratedNetwork load_network_file(const std::string& path) {
  std::ifstream is(path);
  AGENTNET_REQUIRE(is.is_open(), "cannot open for reading: " + path);
  return load_network(is);
}

std::string to_dot(const GeneratedNetwork& net, const DotOptions& options) {
  std::ostringstream os;
  os << "digraph agentnet {\n";
  os << "  node [shape=circle, width=0.2, fixedsize=true, fontsize=8];\n";
  std::vector<bool> highlighted(net.positions.size(), false);
  for (NodeId h : options.highlights) {
    AGENTNET_REQUIRE(h < net.positions.size(), "highlight id out of range");
    highlighted[h] = true;
  }
  for (std::size_t i = 0; i < net.positions.size(); ++i) {
    os << "  n" << i << " [pos=\""
       << net.positions[i].x * options.position_scale << ','
       << net.positions[i].y * options.position_scale << "!\"";
    if (highlighted[i])
      os << ", style=filled, fillcolor=gold, penwidth=2";
    os << "];\n";
  }
  for (const Edge& e : net.graph.edges()) {
    if (options.collapse_mutual && net.graph.has_edge(e.to, e.from)) {
      if (e.from > e.to) continue;  // emit each mutual pair once
      os << "  n" << e.from << " -> n" << e.to << " [dir=none];\n";
    } else {
      os << "  n" << e.from << " -> n" << e.to << ";\n";
    }
  }
  os << "}\n";
  return os.str();
}

void write_series_csv(std::ostream& os,
                      const std::vector<std::string>& names,
                      const std::vector<std::vector<double>>& series) {
  AGENTNET_REQUIRE(names.size() == series.size(),
                   "one name per series required");
  os << "step";
  for (const auto& name : names) os << ',' << name;
  os << '\n';
  std::size_t rows = 0;
  for (const auto& s : series) rows = std::max(rows, s.size());
  os << std::setprecision(12);
  for (std::size_t t = 0; t < rows; ++t) {
    os << t;
    for (const auto& s : series) {
      os << ',';
      if (t < s.size()) os << s[t];
    }
    os << '\n';
  }
}

}  // namespace agentnet
