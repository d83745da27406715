#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace envnws::stats {
namespace {

TEST(Stats, MeanOfEmptyIsZero) { EXPECT_DOUBLE_EQ(mean({}), 0.0); }

TEST(Stats, MeanBasic) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
}

TEST(Stats, MedianOddAndEven) {
  const std::vector<double> odd{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(median(odd), 3.0);
  const std::vector<double> even{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(median(even), 2.5);
}

TEST(Stats, Min) {
  const std::vector<double> xs{3.0, -1.0, 7.0};
  EXPECT_DOUBLE_EQ(min(xs), -1.0);
  EXPECT_DOUBLE_EQ(min({}), 0.0);
}

TEST(Stats, TrimmedMeanDropsOutliers) {
  const std::vector<double> xs{1.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 1000.0};
  EXPECT_DOUBLE_EQ(trimmed_mean(xs, 0.1), 10.0);
}

TEST(Stats, TrimmedMeanFallsBackToMedianWhenOvertrimmed) {
  const std::vector<double> xs{1.0, 2.0};
  EXPECT_DOUBLE_EQ(trimmed_mean(xs, 0.49), median(xs));
}

}  // namespace
}  // namespace envnws::stats
