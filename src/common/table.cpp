#include "common/table.hpp"

#include <algorithm>
#include <cassert>

#include "common/strings.hpp"

namespace envnws {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  assert(cells.size() == headers_.size());
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::to_string() const {
  std::vector<std::size_t> widths(headers_.size(), 0);
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());
  }

  std::string out;
  const auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out += strings::pad_right(row[c], widths[c]);
      if (c + 1 < row.size()) out += "  ";
    }
    out += '\n';
  };
  emit_row(headers_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
  out += std::string(total, '-');
  out += '\n';
  for (const auto& row : rows_) emit_row(row);
  return out;
}

}  // namespace envnws
