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
  EXPECT_TRUE(strings::contains(out, "name"));
  EXPECT_TRUE(strings::contains(out, "longer"));
  // Separator line present.
  EXPECT_TRUE(strings::contains(out, "----"));
  EXPECT_EQ(table.rows(), 2u);
}

TEST(Table, NumericRowFormatsWithPrecision) {
  Table table({"label", "x", "y"});
  table.add_numeric_row("row", {1.23456, 2.0}, 3);
  const std::string out = table.to_string();
  EXPECT_TRUE(strings::contains(out, "1.235"));
  EXPECT_TRUE(strings::contains(out, "2.000"));
}

}  // namespace
}  // namespace envnws
