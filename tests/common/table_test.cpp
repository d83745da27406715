#include "common/table.hpp"

#include <gtest/gtest.h>

#include "common/strings.hpp"

namespace envnws {
namespace {

TEST(Table, RendersAlignedColumns) {
  Table table({"name", "value"});
  table.add_row({"a", "1"});
  table.add_row({"longer", "22"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  // Separator line present.
  EXPECT_NE(out.find("----"), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);
}

TEST(Table, NumericRowFormatsWithPrecision) {
  Table table({"label", "x", "y"});
  table.add_row({"row", strings::format_double(1.23456, 3), strings::format_double(2.0, 3)});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("1.235"), std::string::npos);
  EXPECT_NE(out.find("2.000"), std::string::npos);
}

}  // namespace
}  // namespace envnws
