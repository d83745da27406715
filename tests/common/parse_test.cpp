// Guarded numeric parsing: the one set of helpers every text-to-number
// conversion routes through (probe traces, map cache entries, GridML
// properties, deploy configs, fault specs).
#include <gtest/gtest.h>

#include <limits>

#include "common/parse.hpp"

namespace envnws::parse {
namespace {

TEST(Parse, DoubleAcceptsFullNumericTokensOnly) {
  EXPECT_DOUBLE_EQ(to_double("1.5").value(), 1.5);
  EXPECT_DOUBLE_EQ(to_double("-3e2").value(), -300.0);
  EXPECT_DOUBLE_EQ(to_double("0").value(), 0.0);
  EXPECT_FALSE(to_double("").has_value());
  EXPECT_FALSE(to_double("fast").has_value());
  EXPECT_FALSE(to_double("1.5x").has_value());     // trailing junk
  EXPECT_FALSE(to_double("1.5 2").has_value());    // embedded junk
  EXPECT_FALSE(to_double("1e999").has_value());    // out of range
  EXPECT_FALSE(to_double("1e-400").has_value());   // underflows to zero
  EXPECT_EQ(to_double("4.9406564584124654e-324").value(),  // denorm_min
            std::numeric_limits<double>::denorm_min());
  EXPECT_FALSE(to_double(" ").has_value());
  // std::stod counts skipped whitespace as consumed; the helpers must
  // not let that satisfy the full-token rule.
  EXPECT_FALSE(to_double(" 1.5").has_value());
  EXPECT_DOUBLE_EQ(to_double("+2.5").value(), 2.5);  // explicit sign is part of the token
}

TEST(Parse, I64RejectsJunkAndOverflow) {
  EXPECT_EQ(to_i64("-42").value(), -42);
  EXPECT_EQ(to_i64("9223372036854775807").value(), 9223372036854775807LL);
  EXPECT_FALSE(to_i64("9223372036854775808").has_value());  // INT64_MAX + 1
  EXPECT_FALSE(to_i64("12abc").has_value());
  EXPECT_FALSE(to_i64("").has_value());
  EXPECT_FALSE(to_i64(" 5").has_value());
}

TEST(Parse, U64RejectsNegativesInsteadOfWrapping) {
  EXPECT_EQ(to_u64("0").value(), 0u);
  EXPECT_EQ(to_u64("18446744073709551615").value(), 18446744073709551615ull);
  // std::stoull would happily return 2^64-1 for "-1".
  EXPECT_FALSE(to_u64("-1").has_value());
  EXPECT_FALSE(to_u64("18446744073709551616").has_value());  // UINT64_MAX + 1
  EXPECT_FALSE(to_u64("99999999999999999999999").has_value());
  EXPECT_FALSE(to_u64("huge").has_value());
  EXPECT_FALSE(to_u64("3 ").has_value());
  EXPECT_FALSE(to_u64(" 3").has_value());
}

}  // namespace
}  // namespace envnws::parse
