// Persistence and export: the counterpart of the original simulator's
// "graphical view and plots, [and] data-collection system".
//
// * save/load of generated networks (exact reproducibility across machines
//   without re-running the generator search),
// * Graphviz DOT export for figures,
// * CSV export of named time series for external plotting.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "net/generators.hpp"

namespace agentnet {

/// Writes `net` as a line-oriented text document (format documented in
/// network_io.cpp; versioned header "agentnet-network 1").
void save_network(const GeneratedNetwork& net, std::ostream& os);

/// Parses a document produced by save_network. Throws ConfigError on any
/// malformed or inconsistent input (wrong magic, counts, ids out of range).
GeneratedNetwork load_network(std::istream& is);

/// Convenience file wrappers; throw ConfigError on I/O failure.
void save_network_file(const GeneratedNetwork& net, const std::string& path);
GeneratedNetwork load_network_file(const std::string& path);

struct DotOptions {
  /// Render mutual edge pairs as one undirected-looking edge (dir=none)
  /// instead of two arcs; one-way links stay arrows.
  bool collapse_mutual = true;
  /// Scale factor from arena coordinates to DOT position units.
  double position_scale = 0.01;
  /// Nodes to emphasise (e.g. gateways); doubled border, filled.
  std::vector<NodeId> highlights;
};

/// Graphviz DOT (digraph, with pinned node positions when the network
/// carries geometry).
std::string to_dot(const GeneratedNetwork& net, const DotOptions& options = {});

/// One named time series per column; rows are steps. Series may have
/// different lengths — missing cells are left empty.
void write_series_csv(std::ostream& os,
                      const std::vector<std::string>& names,
                      const std::vector<std::vector<double>>& series);

}  // namespace agentnet
