#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "common/stats.hpp"

namespace envnws {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, DoublesInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
  EXPECT_EQ(rng.next_below(0), 0u);
  EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, UniformRange) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-2.0, 3.0);
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 3.0);
  }
}

/// Mean and sample standard deviation of `draws`.
std::pair<double, double> moments(const std::vector<double>& draws) {
  const double mean = stats::mean(draws);
  double squares = 0.0;
  for (double x : draws) squares += (x - mean) * (x - mean);
  return {mean, std::sqrt(squares / static_cast<double>(draws.size() - 1))};
}

TEST(Rng, NormalHasApproximatelyUnitMoments) {
  Rng rng(17);
  std::vector<double> draws;
  for (int i = 0; i < 20000; ++i) draws.push_back(rng.normal());
  const auto [mean, stddev] = moments(draws);
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(stddev, 1.0, 0.03);
}

TEST(Rng, NormalWithParameters) {
  Rng rng(19);
  std::vector<double> draws;
  for (int i = 0; i < 20000; ++i) draws.push_back(rng.normal(10.0, 2.0));
  const auto [mean, stddev] = moments(draws);
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(stddev, 2.0, 0.1);
}

}  // namespace
}  // namespace envnws
