// Column-oriented result tables: aligned text for terminals and CSV for
// downstream plotting. Every bench binary reports through this so figure
// output is uniform.
#pragma once

#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

namespace agentnet {

/// A simple rectangular table. Cells are strings, doubles or integers;
/// numeric cells are formatted with a per-table precision.
class Table {
 public:
  using Cell = std::variant<std::string, double, std::int64_t>;

  explicit Table(std::vector<std::string> headers);

  /// Number of fractional digits used for double cells (default 3).
  void set_precision(int digits);

  Table& add_row(std::vector<Cell> cells);

  std::size_t rows() const { return rows_.size(); }
  std::size_t columns() const { return headers_.size(); }
  const Cell& at(std::size_t row, std::size_t col) const;

  /// Pretty-prints with aligned columns and a header rule.
  void print(std::ostream& os) const;
  /// RFC-4180-ish CSV (quotes cells containing comma/quote/newline).
  void write_csv(std::ostream& os) const;

 private:
  std::string format_cell(const Cell& cell) const;

  std::vector<std::string> headers_;
  std::vector<std::vector<Cell>> rows_;
  int precision_ = 3;
};

}  // namespace agentnet
