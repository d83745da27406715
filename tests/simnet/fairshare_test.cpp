#include "simnet/fairshare.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"

namespace envnws::simnet {
namespace {

/// Unit-weight flows over the given resource sets.
std::vector<std::vector<WeightedUse>> unit_flows(
    const std::vector<std::vector<std::uint32_t>>& resources) {
  std::vector<std::vector<WeightedUse>> flows;
  for (const auto& used : resources) flows.push_back(flow_uses(used));
  return flows;
}

TEST(FairShare, SingleFlowGetsFullCapacity) {
  const auto rates = solve_max_min({100.0}, unit_flows({{0}}));
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_DOUBLE_EQ(rates[0], 100.0);
}

TEST(FairShare, TwoFlowsShareEqually) {
  const auto rates = solve_max_min({100.0}, unit_flows({{0}, {0}}));
  EXPECT_DOUBLE_EQ(rates[0], 50.0);
  EXPECT_DOUBLE_EQ(rates[1], 50.0);
}

TEST(FairShare, BottleneckCapsButLeavesResidualToOthers) {
  // Flow 0 crosses a 10-capacity uplink and a shared 100 medium;
  // flow 1 uses the medium only: classic "10 Mbps bottleneck through a
  // 100 Mbps hub" situation.
  const auto rates = solve_max_min({10.0, 100.0}, unit_flows({{0, 1}, {1}}));
  EXPECT_DOUBLE_EQ(rates[0], 10.0);
  EXPECT_DOUBLE_EQ(rates[1], 90.0);
}

TEST(FairShare, DisjointFlowsDoNotInteract) {
  const auto rates = solve_max_min({33.0, 33.0}, unit_flows({{0}, {1}}));
  EXPECT_DOUBLE_EQ(rates[0], 33.0);
  EXPECT_DOUBLE_EQ(rates[1], 33.0);
}

TEST(FairShare, FlowWithoutResourcesIsUnbounded) {
  const auto rates = solve_max_min({10.0}, unit_flows({{}, {0}}));
  EXPECT_TRUE(std::isinf(rates[0]));
  EXPECT_DOUBLE_EQ(rates[1], 10.0);
}

TEST(FairShare, ThreeLevelProgressiveFilling) {
  // r0 = 30 shared by flows {0,1,2}; r1 = 50 shared by {1,2}; r2 = 40 by {2}.
  // Progressive filling: all get 10 at r0 -> no further constraint binds
  // below the next bottleneck... all three stop at 10.
  const auto rates = solve_max_min({30.0, 50.0, 40.0}, unit_flows({{0}, {0, 1}, {0, 1, 2}}));
  EXPECT_DOUBLE_EQ(rates[0], 10.0);
  EXPECT_DOUBLE_EQ(rates[1], 10.0);
  EXPECT_DOUBLE_EQ(rates[2], 10.0);
}

TEST(FairShare, UnevenBottlenecks) {
  // Flow 0: narrow private link (5); flow 1 shares the big pipe (100).
  const auto rates = solve_max_min({5.0, 100.0}, unit_flows({{0, 1}, {1}}));
  EXPECT_DOUBLE_EQ(rates[0], 5.0);
  EXPECT_DOUBLE_EQ(rates[1], 95.0);
}

TEST(FairShare, EmptyProblem) {
  EXPECT_TRUE(solve_max_min({}, {}).empty());
}

TEST(FairShare, FlowUsesSumWeightsOfSharedResources) {
  // Half-duplex media sit on both paths: the forward 1.0 and the
  // reverse weight add up; reverse-only resources carry the weight alone.
  const auto uses = flow_uses({4, 1}, {1, 7}, 0.05);
  ASSERT_EQ(uses.size(), 3u);
  EXPECT_EQ(uses[0].resource, 4u);
  EXPECT_EQ(uses[0].weight, 1.0);
  EXPECT_EQ(uses[1].resource, 1u);
  EXPECT_EQ(uses[1].weight, 1.0 + 0.05);
  EXPECT_EQ(uses[2].resource, 7u);
  EXPECT_EQ(uses[2].weight, 0.05);
}

// --- property-based: random problems satisfy max-min optimality ----------

struct RandomProblem {
  std::vector<double> capacities;
  std::vector<std::vector<WeightedUse>> flows;
};

/// A seeded problem over a few resources; every flow term carries one of
/// the weights the link models produce (forward 1.0, lv08 ack 0.05, and
/// 1.05 where the two share half-duplex media).
RandomProblem random_problem(std::uint64_t seed) {
  constexpr double kWeights[] = {1.0, 0.05, 1.05};
  Rng rng(seed);
  RandomProblem problem;
  const std::size_t resources = 2 + rng.next_below(6);
  const std::size_t flows = 1 + rng.next_below(10);
  for (std::size_t r = 0; r < resources; ++r) {
    problem.capacities.push_back(rng.uniform(5.0, 200.0));
  }
  for (std::size_t f = 0; f < flows; ++f) {
    std::vector<WeightedUse> used;
    for (std::uint32_t r = 0; r < resources; ++r) {
      if (rng.next_double() < 0.5) used.push_back({r, kWeights[rng.next_below(3)]});
    }
    if (used.empty()) {
      used.push_back({static_cast<std::uint32_t>(rng.next_below(resources)), 1.0});
    }
    problem.flows.push_back(used);
  }
  return problem;
}

class FairShareProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FairShareProperty, CapacityRespectedAndEveryFlowHasSaturatedBottleneck) {
  const RandomProblem problem = random_problem(GetParam());
  const std::size_t resources = problem.capacities.size();
  const std::size_t flows = problem.flows.size();
  // (0) Termination within F filling rounds: the solver asserts that
  // every round freezes a flow, which Debug builds (the sanitizer job)
  // check on every problem here.
  const auto rates = solve_max_min(problem.capacities, problem.flows);
  ASSERT_EQ(rates.size(), flows);

  // (1) No resource is over-subscribed: weighted consumption fits.
  std::vector<double> load(resources, 0.0);
  for (std::size_t f = 0; f < flows; ++f) {
    EXPECT_GT(rates[f], 0.0);
    EXPECT_TRUE(std::isfinite(rates[f]));
    for (const WeightedUse& use : problem.flows[f]) load[use.resource] += rates[f] * use.weight;
  }
  for (std::size_t r = 0; r < resources; ++r) {
    EXPECT_LE(load[r], problem.capacities[r] * (1.0 + 1e-9));
  }

  // (2) Max-min: every flow crosses at least one saturated resource where
  // its rate is maximal (otherwise its rate could grow).
  const auto crosses = [&problem](std::size_t g, std::uint32_t r) {
    return std::any_of(problem.flows[g].begin(), problem.flows[g].end(),
                       [r](const WeightedUse& use) { return use.resource == r; });
  };
  for (std::size_t f = 0; f < flows; ++f) {
    bool has_bottleneck = false;
    for (const WeightedUse& use : problem.flows[f]) {
      const std::uint32_t r = use.resource;
      const bool saturated = load[r] >= problem.capacities[r] * (1.0 - 1e-9);
      if (!saturated) continue;
      bool is_max = true;
      for (std::size_t g = 0; g < flows; ++g) {
        if (g != f && crosses(g, r) && rates[g] > rates[f] * (1.0 + 1e-9)) {
          is_max = false;
          break;
        }
      }
      if (is_max) {
        has_bottleneck = true;
        break;
      }
    }
    EXPECT_TRUE(has_bottleneck) << "flow " << f << " has no saturated bottleneck";
  }
}

TEST_P(FairShareProperty, UntouchedResourcesDoNotChangeTheRates) {
  // The same problem with its resources scattered (in reverse order)
  // over a capacity vector 1,000x larger whose padding no flow touches:
  // the solver only sees the resources flows use, so the rates are the
  // same bits.
  const RandomProblem problem = random_problem(GetParam());
  constexpr std::size_t kSpread = 1000;
  const std::size_t resources = problem.capacities.size();
  const auto spread_index = [&](std::uint32_t r) {
    return static_cast<std::uint32_t>((resources - 1 - r) * kSpread + GetParam() % kSpread);
  };
  // Tiny padding capacities would win every bottleneck scan they entered.
  std::vector<double> capacities(resources * kSpread, 1e-6);
  for (std::uint32_t r = 0; r < resources; ++r) {
    capacities[spread_index(r)] = problem.capacities[r];
  }
  std::vector<std::vector<WeightedUse>> flows = problem.flows;
  for (auto& uses : flows) {
    for (WeightedUse& use : uses) use.resource = spread_index(use.resource);
  }
  const auto compact = solve_max_min(problem.capacities, problem.flows);
  const auto spread = solve_max_min(capacities, flows);
  ASSERT_EQ(compact.size(), spread.size());
  for (std::size_t f = 0; f < compact.size(); ++f) {
    EXPECT_EQ(compact[f], spread[f]) << "flow " << f;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomProblems, FairShareProperty,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace envnws::simnet
