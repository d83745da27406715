#include "common/strings.hpp"

#include <gtest/gtest.h>

namespace envnws::strings {
namespace {

TEST(Strings, SplitKeepsEmptyPieces) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Strings, SplitNonemptyDropsEmptyPieces) {
  const auto parts = split_nonempty(".a..b.", '.');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
}

TEST(Strings, JoinRoundTrip) {
  EXPECT_EQ(join({"x", "y", "z"}, ", "), "x, y, z");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, PrefixSuffix) {
  EXPECT_TRUE(starts_with("canaria.ens-lyon.fr", "canaria"));
  EXPECT_FALSE(starts_with("a", "ab"));
}

TEST(Strings, ToLower) {
  EXPECT_EQ(to_lower("ENS-Lyon.FR"), "ens-lyon.fr");
}

TEST(Strings, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(10.0, 0), "10");
}

TEST(Strings, Padding) {
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_right("abcdef", 3), "abc");
}

}  // namespace
}  // namespace envnws::strings
