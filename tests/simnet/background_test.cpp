#include "simnet/background.hpp"

#include <gtest/gtest.h>

#include "common/units.hpp"
#include "env/sim_probe_engine.hpp"
#include "simnet/scenario.hpp"

namespace envnws::simnet {
namespace {

using units::mbps;

TEST(CrossTraffic, GeneratesTaggedBursts) {
  auto scenario = star_switch(3, mbps(100));
  Network net(std::move(scenario.topology));
  CrossTrafficSpec spec;
  spec.src = net.topology().find_by_name("h0").value();
  spec.dst = net.topology().find_by_name("h1").value();
  spec.period_s = 5.0;
  spec.spread = 0.0;  // strictly periodic
  CrossTraffic traffic(net, spec);
  traffic.start();
  net.run_until(100.0);
  traffic.stop();
  EXPECT_NEAR(static_cast<double>(traffic.bursts_sent()), 20.0, 2.0);
  EXPECT_GT(net.stats().by_purpose.at("background").bytes, 0);
}

TEST(CrossTraffic, StopCeasesActivity) {
  auto scenario = star_switch(2, mbps(100));
  Network net(std::move(scenario.topology));
  CrossTrafficSpec spec;
  spec.src = net.topology().find_by_name("h0").value();
  spec.dst = net.topology().find_by_name("h1").value();
  spec.period_s = 2.0;
  CrossTraffic traffic(net, spec);
  traffic.start();
  net.run_until(20.0);
  const std::uint64_t before = traffic.bursts_sent();
  traffic.stop();
  net.run_until(100.0);
  EXPECT_EQ(traffic.bursts_sent(), before);
}

TEST(CrossTraffic, ContendsWithProbes) {
  // On a shared hub, a probe overlapping a background burst reads less
  // than the full medium.
  auto scenario = star_hub(4, mbps(10));
  Network net(std::move(scenario.topology));
  CrossTrafficSpec spec;
  spec.src = net.topology().find_by_name("h2").value();
  spec.dst = net.topology().find_by_name("h3").value();
  spec.burst_bytes = units::mib(8);  // ~6.7 s per burst at 10 Mbps
  spec.period_s = 1.0;               // effectively always on
  spec.spread = 0.0;
  CrossTraffic traffic(net, spec);
  traffic.start();
  net.run_until(5.0);
  env::SimProbeEngine engine(net, env::MapperOptions{});  // 1 MiB probes
  const auto measured = engine.bandwidth("h0", "h1");
  traffic.stop();
  ASSERT_TRUE(measured.ok());
  EXPECT_LT(measured.value(), mbps(6.5));
}

TEST(CrossTraffic, DeterministicPerSeed) {
  const auto run = [] {
    auto scenario = star_switch(4, mbps(100));
    Network net(std::move(scenario.topology));
    CrossTrafficSpec spec;
    spec.src = net.topology().find_by_name("h0").value();
    spec.dst = net.topology().find_by_name("h1").value();
    spec.period_s = 3.0;
    spec.spread = 0.8;
    spec.seed = 77;
    CrossTraffic traffic(net, spec);
    traffic.start();
    net.run_until(300.0);
    return traffic.bursts_sent();
  };
  EXPECT_EQ(run(), run());
}

TEST(CrossTraffic, BackgroundLoadFactory) {
  auto scenario = star_switch(5, mbps(100));
  Network net(std::move(scenario.topology));
  auto generators = make_background_load(net, net.topology().hosts(), 0.5, 9);
  ASSERT_EQ(generators.size(), 5u);
  for (auto& generator : generators) generator->start();
  net.run_until(60.0);
  std::uint64_t total = 0;
  for (auto& generator : generators) total += generator->bursts_sent();
  EXPECT_GT(total, 20u);
  // Zero intensity or too few hosts -> no generators.
  EXPECT_TRUE(make_background_load(net, net.topology().hosts(), 0.0, 1).empty());
  EXPECT_TRUE(make_background_load(net, {net.topology().hosts().front()}, 1.0, 1).empty());
}

}  // namespace
}  // namespace envnws::simnet
