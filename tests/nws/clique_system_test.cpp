#include <gtest/gtest.h>

#include "common/units.hpp"
#include "nws/system.hpp"
#include "simnet/scenario.hpp"

namespace envnws::nws {
namespace {

using simnet::NodeId;
using units::mbps;

std::unique_ptr<NwsSystem> make_switch_system(simnet::Network& net, int members,
                                              double period = 5.0,
                                              CliqueSpec* spec_out = nullptr) {
  SystemConfig config;
  config.nameserver_host = "h0";
  config.forecaster_host = "h0";
  config.memory_hosts = {"h0"};
  auto system = std::make_unique<NwsSystem>(net, config);
  CliqueSpec spec;
  spec.name = "test-clique";
  spec.period_s = period;
  for (int i = 0; i < members; ++i) {
    spec.members.push_back(net.topology().find_by_name("h" + std::to_string(i)).value());
  }
  if (spec_out != nullptr) *spec_out = spec;
  system->add_clique(spec);
  return system;
}

TEST(Clique, MeasuresEveryOrderedPair) {
  auto scenario = simnet::star_switch(3, mbps(100));
  simnet::Network net(std::move(scenario.topology));
  auto system = make_switch_system(net, 3);
  system->start();
  net.run_until(500.0);
  // 6 ordered pairs; ~100 experiments in 500s at period 5 -> every pair
  // visited several times, with bandwidth, latency and connect series.
  for (const std::string src : {"h0", "h1", "h2"}) {
    for (const std::string dst : {"h0", "h1", "h2"}) {
      if (src == dst) continue;
      const TimeSeries* bw = system->find_series({ResourceKind::bandwidth, src, dst});
      ASSERT_NE(bw, nullptr) << src << "->" << dst;
      EXPECT_GE(bw->size(), 5u);
      EXPECT_NEAR(bw->latest().value, mbps(100), mbps(8));
      EXPECT_NE(system->find_series({ResourceKind::latency, src, dst}), nullptr);
      EXPECT_NE(system->find_series({ResourceKind::connect_time, src, dst}), nullptr);
    }
  }
  const auto& clique = *system->cliques().front();
  EXPECT_GT(clique.experiments_run(), 50u);
  EXPECT_GT(clique.token_passes(), 50u);
  EXPECT_EQ(clique.regenerations(), 0u);
  system->stop();
}

TEST(Clique, TokenSerializesExperiments) {
  // On a shared 10 Mbps hub, colliding experiments would read ~5 Mbps.
  // With the token ring, every reading stays at the full medium rate.
  auto scenario = simnet::star_hub(4, mbps(10));
  simnet::Network net(std::move(scenario.topology));
  auto system = make_switch_system(net, 4, 2.0);
  system->start();
  net.run_until(600.0);
  for (int src = 0; src < 4; ++src) {
    for (int dst = 0; dst < 4; ++dst) {
      if (src == dst) continue;
      const SeriesKey key{ResourceKind::bandwidth, "h" + std::to_string(src),
                          "h" + std::to_string(dst)};
      const TimeSeries* series = system->find_series(key);
      ASSERT_NE(series, nullptr) << key.to_string();
      for (const double v : series->values()) {
        EXPECT_GT(v, mbps(9)) << key.to_string() << " saw a collided measurement";
      }
    }
  }
  system->stop();
}

TEST(Clique, MeasurementFrequencyDropsWithSize) {
  // CLAIM-CLIQUE in miniature: the per-pair frequency decays ~ 1/(k(k-1)).
  double period_small = 0.0;
  double period_large = 0.0;
  {
    auto scenario = simnet::star_switch(3, mbps(100));
    simnet::Network net(std::move(scenario.topology));
    auto system = make_switch_system(net, 3, 2.0);
    system->start();
    net.run_until(2000.0);
    period_small =
        system->find_series({ResourceKind::bandwidth, "h0", "h1"})->mean_period();
    system->stop();
  }
  {
    auto scenario = simnet::star_switch(8, mbps(100));
    simnet::Network net(std::move(scenario.topology));
    auto system = make_switch_system(net, 8, 2.0);
    system->start();
    net.run_until(2000.0);
    period_large =
        system->find_series({ResourceKind::bandwidth, "h0", "h1"})->mean_period();
    system->stop();
  }
  // 3 members: 6 pairs/cycle; 8 members: 56 pairs/cycle -> ~9.3x slower.
  EXPECT_GT(period_large, period_small * 6.0);
}

TEST(Clique, TokenRegenerationAfterHolderDies) {
  // Infrastructure (name server / memory) lives on h0, OUTSIDE the
  // clique, so killing the token holder does not take the storage down.
  auto scenario = simnet::star_switch(4, mbps(100));
  simnet::Network net(std::move(scenario.topology));
  SystemConfig config;
  config.nameserver_host = "h0";
  NwsSystem system(net, config);
  CliqueSpec spec;
  spec.name = "ring";
  spec.period_s = 2.0;
  for (int i = 1; i <= 3; ++i) {
    spec.members.push_back(net.topology().find_by_name("h" + std::to_string(i)).value());
  }
  system.add_clique(spec);
  system.start();
  // The token is delivered to the first pair's source (h1) at t=0; its
  // first experiment fires at t=period. Killing h1 in between
  // deterministically loses the token: the watchdog must elect the
  // lowest-ranked alive member and regenerate.
  net.run_until(1.0);
  net.set_host_up(net.topology().find_by_name("h1").value(), false);
  net.run_until(300.0);
  const auto& clique = *system.cliques().front();
  EXPECT_GE(clique.regenerations(), 1u);
  // Measurements between the survivors continue after the recovery.
  const TimeSeries* survivors = system.find_series({ResourceKind::bandwidth, "h2", "h3"});
  ASSERT_NE(survivors, nullptr);
  EXPECT_GT(survivors->latest().time, 100.0);
  system.stop();
}

TEST(Clique, DeadMembersAreSkippedWithoutTokenLoss) {
  auto scenario = simnet::star_switch(4, mbps(100));
  simnet::Network net(std::move(scenario.topology));
  auto system = make_switch_system(net, 4, 2.0);
  system->start();
  net.run_until(50.0);
  // Kill a member while it does NOT hold the token (right after one of
  // its experiments completed the ring has moved on): the pass logic
  // must route around it with no regeneration at all.
  const auto& clique = *system->cliques().front();
  const std::uint64_t experiments_before = clique.experiments_run();
  net.set_host_up(net.topology().find_by_name("h3").value(), false);
  net.run_until(250.0);
  EXPECT_GT(clique.experiments_run(), experiments_before + 20u);
  const TimeSeries* survivors = system->find_series({ResourceKind::bandwidth, "h1", "h2"});
  ASSERT_NE(survivors, nullptr);
  EXPECT_GT(survivors->latest().time, 200.0);
  system->stop();
}

TEST(Clique, RecoversWhenHostComesBack) {
  auto scenario = simnet::star_switch(3, mbps(100));
  simnet::Network net(std::move(scenario.topology));
  auto system = make_switch_system(net, 3, 2.0);
  system->start();
  net.run_until(30.0);
  const NodeId h0 = net.topology().find_by_name("h0").value();
  net.set_host_up(h0, false);
  net.run_until(120.0);
  net.set_host_up(h0, true);
  net.run_until(400.0);
  // h0's pairs are measured again after it rejoins.
  const TimeSeries* back = system->find_series({ResourceKind::bandwidth, "h0", "h1"});
  ASSERT_NE(back, nullptr);
  EXPECT_GT(back->latest().time, 150.0);
  system->stop();
}

TEST(Clique, RepeatedMemberIsScheduledOnce) {
  // The schedule walks pair indices over the distinct members: a member
  // named twice never pairs with itself or doubles its pairs.
  auto scenario = simnet::star_switch(4, mbps(100));
  simnet::Network net(std::move(scenario.topology));
  SystemConfig config;
  config.nameserver_host = "h0";
  NwsSystem system(net, config);
  CliqueSpec spec;
  spec.name = "pair-clique";
  spec.period_s = 2.0;
  const NodeId h0 = net.topology().find_by_name("h0").value();
  const NodeId h1 = net.topology().find_by_name("h1").value();
  spec.members = {h0, h1, h0};
  Clique& clique = system.add_clique(spec);
  ASSERT_EQ(clique.pair_count(), 2u);
  EXPECT_EQ(clique.pair_at(0), std::make_pair(h0, h1));
  EXPECT_EQ(clique.pair_at(1), std::make_pair(h1, h0));
  EXPECT_DOUBLE_EQ(clique.expected_cycle_time(), 4.0);
  system.start();
  net.run_until(100.0);
  EXPECT_NE(system.find_series({ResourceKind::bandwidth, "h0", "h1"}), nullptr);
  EXPECT_NE(system.find_series({ResourceKind::bandwidth, "h1", "h0"}), nullptr);
  EXPECT_EQ(system.find_series({ResourceKind::bandwidth, "h0", "h0"}), nullptr);
  system.stop();
}

TEST(System, QueryFollowsPaperMessageFlow) {
  auto scenario = simnet::star_switch(3, mbps(100));
  simnet::Network net(std::move(scenario.topology));
  auto system = make_switch_system(net, 3, 2.0);
  system->start();
  net.run_until(200.0);
  const auto reply = system->query("h2", {ResourceKind::bandwidth, "h0", "h1"});
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  EXPECT_NEAR(reply.value().forecast.value, mbps(100), mbps(8));
  EXPECT_GT(reply.value().forecast.samples, 10u);
  EXPECT_GT(reply.value().query_latency_s, 0.0);
  EXPECT_FALSE(reply.value().forecast.winner.empty());
  system->stop();
}

TEST(System, QueryUnknownSeriesFails) {
  auto scenario = simnet::star_switch(3, mbps(100));
  simnet::Network net(std::move(scenario.topology));
  auto system = make_switch_system(net, 3, 2.0);
  system->start();
  const auto reply = system->query("h0", {ResourceKind::bandwidth, "h0", "nope"});
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code, ErrorCode::not_found);
  system->stop();
}

TEST(System, HostSensorsProduceCpuMemoryDiskSeries) {
  auto scenario = simnet::star_switch(2, mbps(100));
  simnet::Network net(std::move(scenario.topology));
  SystemConfig config;
  config.nameserver_host = "h0";
  config.host_sensor_period_s = 5.0;
  NwsSystem system(net, config);
  system.add_host_sensor("h1");
  system.start();
  net.run_until(120.0);
  for (const ResourceKind kind :
       {ResourceKind::cpu, ResourceKind::memory, ResourceKind::disk}) {
    const TimeSeries* series = system.find_series({kind, "h1", ""});
    ASSERT_NE(series, nullptr);
    EXPECT_GE(series->size(), 20u);
  }
  const auto reply = system.query("h0", {ResourceKind::cpu, "h1", ""});
  ASSERT_TRUE(reply.ok());
  EXPECT_GT(reply.value().forecast.value, 0.0);
  EXPECT_LE(reply.value().forecast.value, 1.0);
  system.stop();
}

TEST(System, UncoordinatedProbesCollideOnHub) {
  // The §2.3 motivation: two uncoordinated monitors on one hub read about
  // half the real bandwidth whenever their probes overlap.
  auto scenario = simnet::star_hub(4, mbps(10));
  simnet::Network net(std::move(scenario.topology));
  SystemConfig config;
  config.nameserver_host = "h0";
  NwsSystem system(net, config);
  // Same period => they fire at the same instants and always collide.
  system.add_uncoordinated_probe("h0", "h1", 5.0);
  system.add_uncoordinated_probe("h2", "h3", 5.0);
  system.start();
  net.run_until(300.0);
  const TimeSeries* series = system.find_series({ResourceKind::bandwidth, "h0", "h1"});
  ASSERT_NE(series, nullptr);
  ASSERT_GE(series->size(), 10u);
  // Every reading is collided: ~5 Mbps instead of 10.
  for (const double v : series->values()) EXPECT_LT(v, mbps(6));
  system.stop();
}

TEST(System, UnknownHostNamesAreNotFound) {
  auto scenario = simnet::star_hub(4, mbps(10));
  simnet::Network net(std::move(scenario.topology));
  SystemConfig config;
  config.nameserver_host = "h0";
  NwsSystem system(net, config);
  const auto probe = system.add_uncoordinated_probe("h0", "no-such-host", 5.0);
  ASSERT_FALSE(probe.ok());
  EXPECT_EQ(probe.error().code, ErrorCode::not_found);
  const Status sensor = system.add_host_sensor("no-such-host");
  ASSERT_FALSE(sensor.ok());
  EXPECT_EQ(sensor.error().code, ErrorCode::not_found);
  const auto reply = system.query("no-such-host", {ResourceKind::bandwidth, "h0", "h1"});
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code, ErrorCode::not_found);
  EXPECT_TRUE(system.add_uncoordinated_probe("h0", "h1", 5.0).ok());
}

TEST(System, NameServerDirectoryIsPopulated) {
  auto scenario = simnet::star_switch(3, mbps(100));
  simnet::Network net(std::move(scenario.topology));
  auto system = make_switch_system(net, 3, 5.0);
  system->add_host_sensor("h2");
  system->start();
  const NameServer& ns = system->nameserver();
  EXPECT_GE(ns.processes().size(), 3u);  // nameserver, forecaster, memory
  // Every ordered pair's bandwidth, latency and connect-time series.
  for (const char* src : {"h0", "h1", "h2"}) {
    for (const char* dst : {"h0", "h1", "h2"}) {
      if (std::string(src) == dst) continue;
      for (const ResourceKind kind :
           {ResourceKind::bandwidth, ResourceKind::latency, ResourceKind::connect_time}) {
        EXPECT_TRUE(ns.locate_memory({kind, src, dst}).ok()) << src << "->" << dst;
      }
    }
  }
  EXPECT_FALSE(ns.locate_memory({ResourceKind::bandwidth, "x", "y"}).ok());
  system->stop();
}

}  // namespace
}  // namespace envnws::nws
