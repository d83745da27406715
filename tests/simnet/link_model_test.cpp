// Closed-form contracts of the pluggable link model (link_model.hpp):
// the lossy retransmission algebra, the lv08 capacity/latency
// corrections, the canonical decorator prefixes, the weighted fair-share
// solver they ride on — and the network-level effects (wifi media,
// lossy goodput, tcp cross-traffic) through predicted_rates().
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "simnet/fairshare.hpp"
#include "simnet/link_model.hpp"
#include "simnet/network.hpp"
#include "simnet/scenario.hpp"
#include "common/units.hpp"

namespace envnws::simnet {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(LinkModel, RetransmissionFactorClosedForms) {
  // Expected (re)transmissions per delivered segment, nominal over
  // effective capacity: 1 / ((1 - loss)(1 - cksum)).
  const double nominal = units::mbps(100.0);
  const auto factor = [nominal](double loss_pct, double cksum_pct) {
    LinkModelSpec model;
    model.loss_pct = loss_pct;
    model.cksum_pct = cksum_pct;
    return nominal / model.effective_capacity(nominal);
  };
  // Half the segments dropped: each is sent twice on average.
  EXPECT_DOUBLE_EQ(factor(50.0, 0.0), 2.0);
  // Loss and corruption compose multiplicatively: 1 / (0.8 * 0.9).
  EXPECT_DOUBLE_EQ(factor(20.0, 10.0), 1.0 / 0.72);
  // Degenerate total loss: no goodput at all.
  LinkModelSpec dead;
  dead.loss_pct = 100.0;
  EXPECT_EQ(dead.effective_capacity(nominal), 0.0);
}

TEST(LinkModel, EffectiveCapacityAndLatency) {
  const double nominal = units::mbps(100.0);

  // The ideal model is the identity — bit-identical, not just close.
  const LinkModelSpec ideal = LinkModelSpec::ideal();
  EXPECT_TRUE(ideal.is_ideal());
  EXPECT_EQ(ideal.effective_capacity(nominal), nominal);
  EXPECT_EQ(ideal.effective_latency(50e-6), 50e-6);

  LinkModelSpec tcp;
  tcp.tcp = true;
  EXPECT_DOUBLE_EQ(tcp.effective_capacity(nominal), nominal * 0.97);
  EXPECT_DOUBLE_EQ(tcp.effective_latency(50e-6), 50e-6 * 13.01);
  EXPECT_TRUE(tcp.weighted());

  LinkModelSpec lossy;
  lossy.loss_pct = 2.0;
  lossy.cksum_pct = 1.0;
  // Goodput = capacity * delivered fraction (1 - loss)(1 - cksum).
  EXPECT_DOUBLE_EQ(lossy.effective_capacity(nominal), nominal * 0.98 * 0.99);
  EXPECT_EQ(lossy.effective_latency(50e-6), 50e-6);  // loss leaves latency alone

  // Corrections stack: tcp * lossy.
  LinkModelSpec both = tcp;
  both.loss_pct = 2.0;
  EXPECT_DOUBLE_EQ(both.effective_capacity(nominal), nominal * 0.97 * 0.98);
}

TEST(LinkModel, DecoratorPrefixesAreCanonical) {
  EXPECT_EQ(LinkModelSpec::ideal().decorator_prefix(), "");
  EXPECT_EQ(LinkModelSpec::ideal().fingerprint(), "ideal");

  LinkModelSpec spec;
  spec.wifi = true;
  spec.tcp = true;
  spec.loss_pct = 2.0;
  // Canonical order regardless of how the flags were set.
  EXPECT_EQ(spec.decorator_prefix(), "tcp-lv08:lossy:p=2%:wifi:");
  spec.cksum_pct = 1.5;
  EXPECT_EQ(spec.decorator_prefix(), "tcp-lv08:lossy:p=2%:c=1.5%:wifi:");
  EXPECT_EQ(spec.fingerprint(), spec.decorator_prefix());

  BackgroundSpec background;
  EXPECT_EQ(background.decorator_prefix(), "");
  background.flows = 8;
  EXPECT_EQ(background.decorator_prefix(), "bg:8:");
}

TEST(WeightedFairShare, AllUnitWeightsMatchTheUnweightedSolver) {
  // With every weight at 1.0 the solver must reproduce the historical
  // unweighted solver exactly — same divisions, same subtractions. Its
  // rates on these seeded problems are pinned: the first three rounds
  // literally, all 848 rates through an FNV-1a digest of their bits.
  const std::vector<std::vector<double>> kFirstRounds = {
      {212.0, kInf, 212.0, 214.0},
      {76.75, 43.5, 43.5, 43.5, 89.5, 89.5, 43.5, 76.75},
      {471.5, 471.5},
  };
  constexpr std::uint64_t kPinnedDigest = 0x3eb9a37c1a55eb1eull;
  Rng rng(0x11e1903);
  std::uint64_t digest = hash::kFnvOffset;
  std::size_t rate_count = 0;
  for (int round = 0; round < 200; ++round) {
    const std::size_t resources = 1 + rng.next_below(6);
    const std::size_t flow_count = 1 + rng.next_below(8);
    std::vector<double> capacities;
    for (std::size_t r = 0; r < resources; ++r) {
      capacities.push_back(static_cast<double>(1 + rng.next_below(1000)));
    }
    std::vector<std::vector<WeightedUse>> flows;
    for (std::size_t f = 0; f < flow_count; ++f) {
      std::vector<std::uint32_t> uses;
      const std::size_t use_count = rng.next_below(resources + 1);
      for (std::size_t u = 0; u < use_count; ++u) {
        const auto r = static_cast<std::uint32_t>(rng.next_below(resources));
        bool duplicate = false;
        for (const std::uint32_t seen : uses) duplicate = duplicate || seen == r;
        if (!duplicate) uses.push_back(r);
      }
      flows.push_back(flow_uses(uses));
    }
    const std::vector<double> rates = solve_max_min(capacities, flows);
    ASSERT_EQ(rates.size(), flow_count);
    if (round < static_cast<int>(kFirstRounds.size())) {
      EXPECT_EQ(rates, kFirstRounds[static_cast<std::size_t>(round)]) << "round " << round;
    }
    for (const double rate : rates) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &rate, sizeof bits);
      digest = hash::fnv1a64(hash::hex64(bits), digest);
      ++rate_count;
    }
  }
  EXPECT_EQ(rate_count, 848u);
  EXPECT_EQ(digest, kPinnedDigest) << hash::hex64(digest);
}

TEST(WeightedFairShare, LightFlowsConsumeProportionallyToWeight) {
  // r0 (cap 10): flow A at weight 1, flow B at weight 0.05.
  // r1 (cap 1): flow B at weight 1 — B bottlenecks there at rate 1,
  // consuming only 0.05 of r0, so A gets the remaining 9.95.
  const std::vector<double> rates =
      solve_max_min({10.0, 1.0}, {{{0, 1.0}}, {{0, 0.05}, {1, 1.0}}});
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_DOUBLE_EQ(rates[1], 1.0);
  EXPECT_DOUBLE_EQ(rates[0], 10.0 - 0.05 * 1.0);

  // Equal-rate allocation when both contend on one resource: rates are
  // EQUAL (weighted max-min equalizes rates, not consumption).
  const std::vector<double> both = solve_max_min({10.0}, {{{0, 1.0}}, {{0, 0.05}}});
  EXPECT_DOUBLE_EQ(both[0], 10.0 / 1.05);
  EXPECT_DOUBLE_EQ(both[0], both[1]);
}

TEST(WeightedFairShare, DrainedResourceDustCannotStallTheSolver) {
  // Freezing flows A (weight 1) and B (weight 0.05) drains r0 exactly,
  // but the incremental bookkeeping leaves floating-point dust in r0's
  // weight sum (1.05 - 1.0 - 0.05 ~ 4e-17) and residual. A dust share
  // residual/dust undercuts every live share, so a solver that still
  // treats r0 as constraining picks a bottleneck no remaining flow
  // crosses — flow C never freezes and progressive filling spins
  // forever. Liveness must come from the integer user count.
  const std::vector<double> rates = solve_max_min({9.7e6, 9.7e7}, {
      {{0, 1.0}, {1, 1.0}},  // A: bottlenecked on r0
      {{0, 0.05}},           // B: ack-style cross traffic
      {{1, 1.0}},            // C: r1 only, freezes last
  });
  ASSERT_EQ(rates.size(), 3u);
  const double r0_share = 9.7e6 / 1.05;
  EXPECT_DOUBLE_EQ(rates[0], r0_share);
  EXPECT_DOUBLE_EQ(rates[1], r0_share);
  // C takes what A left on r1 — finite and positive, never dust-capped.
  EXPECT_NEAR(rates[2], 9.7e7 - r0_share, 1.0);
  EXPECT_GT(rates[2], 0.0);
}

/// predicted_rates on a star-switch platform under `model`, for the
/// host-index pairs given.
std::vector<double> star_rates(const LinkModelSpec& model,
                               const std::vector<std::pair<int, int>>& host_pairs,
                               int hosts = 4, double mbps = 1000.0) {
  Scenario scenario = star_switch(hosts, units::mbps(mbps));
  scenario.topology.set_link_model(model);
  Network net(std::move(scenario.topology));
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (const auto& [a, b] : host_pairs) {
    pairs.emplace_back(net.topology().hosts()[a], net.topology().hosts()[b]);
  }
  auto rates = net.predicted_rates(pairs);
  EXPECT_TRUE(rates.ok());
  return rates.ok() ? rates.value() : std::vector<double>{};
}

TEST(LinkModelNetwork, LossyScalesGoodputAndGroundTruth) {
  LinkModelSpec lossy;
  lossy.loss_pct = 2.0;
  const auto rates = star_rates(lossy, {{0, 1}});
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_DOUBLE_EQ(rates[0], units::mbps(1000.0) * 0.98);

  Scenario scenario = star_switch(4, units::mbps(1000.0));
  scenario.topology.set_link_model(lossy);
  Network net(std::move(scenario.topology));
  auto truth =
      net.ground_truth_bandwidth(net.topology().hosts()[0], net.topology().hosts()[1]);
  ASSERT_TRUE(truth.ok());
  EXPECT_DOUBLE_EQ(truth.value(), units::mbps(1000.0) * 0.98);
}

TEST(LinkModelNetwork, WifiMakesDisjointPairsShareTheMedium) {
  // Ideal switch: h0->h1 and h2->h3 do not share anything.
  const auto ideal = star_rates(LinkModelSpec::ideal(), {{0, 1}, {2, 3}});
  ASSERT_EQ(ideal.size(), 2u);
  EXPECT_DOUBLE_EQ(ideal[0], units::mbps(1000.0));
  EXPECT_DOUBLE_EQ(ideal[1], units::mbps(1000.0));

  // Wifi: the switch is an access point — ONE medium, so the same two
  // transfers halve each other.
  LinkModelSpec wifi;
  wifi.wifi = true;
  const auto shared = star_rates(wifi, {{0, 1}, {2, 3}});
  ASSERT_EQ(shared.size(), 2u);
  EXPECT_DOUBLE_EQ(shared[0], units::mbps(500.0));
  EXPECT_DOUBLE_EQ(shared[1], units::mbps(500.0));
}

TEST(LinkModelNetwork, TcpLv08PredictsUsableFractionAndAckContention) {
  LinkModelSpec tcp;
  tcp.tcp = true;
  // Solo transfer: 97% of nominal.
  const auto solo = star_rates(tcp, {{0, 1}});
  ASSERT_EQ(solo.size(), 1u);
  EXPECT_DOUBLE_EQ(solo[0], units::mbps(1000.0) * 0.97);

  // Opposed transfers h0->h1 and h1->h0: each forward path carries the
  // other's 0.05-weight ack stream, so the equal-rate share of each
  // link is 0.97 / 1.05 of nominal — contention the ideal model can't
  // see (it would grant both full rate).
  const auto opposed = star_rates(tcp, {{0, 1}, {1, 0}});
  ASSERT_EQ(opposed.size(), 2u);
  EXPECT_DOUBLE_EQ(opposed[0], units::mbps(1000.0) * 0.97 / 1.05);
  EXPECT_DOUBLE_EQ(opposed[0], opposed[1]);
  const auto opposed_ideal = star_rates(LinkModelSpec::ideal(), {{0, 1}, {1, 0}});
  EXPECT_DOUBLE_EQ(opposed_ideal[0], units::mbps(1000.0));
}

TEST(LinkModelNetwork, IdealTopologyCapacitiesAreBitIdentical) {
  // The spec-level guarantee behind the golden traces: attaching the
  // ideal model changes NOTHING about the fluid problem.
  Scenario plain = star_switch(4, units::mbps(1000.0));
  Scenario decorated = star_switch(4, units::mbps(1000.0));
  decorated.topology.set_link_model(LinkModelSpec::ideal());
  Network a(std::move(plain.topology));
  Network b(std::move(decorated.topology));
  EXPECT_EQ(a.resource_capacities(), b.resource_capacities());
}

}  // namespace
}  // namespace envnws::simnet
