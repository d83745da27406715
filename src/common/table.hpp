// ASCII table renderer used by the benchmark harness to print paper-style
// result rows, and by the examples for readable reports.
#pragma once

#include <string>
#include <vector>

namespace envnws {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Append a row; must have the same arity as the header.
  void add_row(std::vector<std::string> cells);

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }
  /// Render with column alignment and a separator under the header.
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace envnws
