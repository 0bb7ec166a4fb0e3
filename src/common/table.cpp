#include "common/table.hpp"

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "common/error.hpp"

namespace agentnet {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  AGENTNET_REQUIRE(!headers_.empty(), "table needs at least one column");
}

void Table::set_precision(int digits) {
  AGENTNET_REQUIRE(digits >= 0 && digits <= 12, "table precision 0..12");
  precision_ = digits;
}

Table& Table::add_row(std::vector<Cell> cells) {
  AGENTNET_REQUIRE(cells.size() == headers_.size(),
                   "row width does not match header count");
  rows_.push_back(std::move(cells));
  return *this;
}

const Table::Cell& Table::at(std::size_t row, std::size_t col) const {
  AGENTNET_ASSERT(row < rows_.size() && col < headers_.size());
  return rows_[row][col];
}

std::string Table::format_cell(const Cell& cell) const {
  if (const auto* s = std::get_if<std::string>(&cell)) return *s;
  if (const auto* i = std::get_if<std::int64_t>(&cell))
    return std::to_string(*i);
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision_) << std::get<double>(cell);
  return os.str();
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = headers_[c].size();
  std::vector<std::vector<std::string>> formatted;
  formatted.reserve(rows_.size());
  for (const auto& row : rows_) {
    std::vector<std::string> cells(row.size());
    for (std::size_t c = 0; c < row.size(); ++c) {
      cells[c] = format_cell(row[c]);
      widths[c] = std::max(widths[c], cells[c].size());
    }
    formatted.push_back(std::move(cells));
  }
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << std::setw(static_cast<int>(widths[c])) << cells[c];
      os << (c + 1 == cells.size() ? "\n" : "  ");
    }
  };
  emit(headers_);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << std::string(widths[c], '-');
    os << (c + 1 == headers_.size() ? "\n" : "  ");
  }
  for (const auto& cells : formatted) emit(cells);
}

namespace {
std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}
}  // namespace

void Table::write_csv(std::ostream& os) const {
  for (std::size_t c = 0; c < headers_.size(); ++c)
    os << csv_escape(headers_[c]) << (c + 1 == headers_.size() ? "\n" : ",");
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c)
      os << csv_escape(format_cell(row[c]))
         << (c + 1 == row.size() ? "\n" : ",");
  }
}

}  // namespace agentnet
