#include <gtest/gtest.h>

#include "common/units.hpp"
#include "nws/memory.hpp"
#include "nws/nameserver.hpp"
#include "nws/system.hpp"
#include "simnet/scenario.hpp"

namespace envnws::nws {
namespace {

using simnet::NodeId;
using units::mbps;

TEST(MemoryServer, StoresAndFinds) {
  MemoryServer memory("mem", NodeId(0), 4);
  const SeriesKey key{ResourceKind::bandwidth, "a", "b"};
  EXPECT_EQ(memory.find(key), nullptr);
  memory.store(key, 1.0, 10.0);
  memory.store(key, 2.0, 20.0);
  const TimeSeries* series = memory.find(key);
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->size(), 2u);
  EXPECT_DOUBLE_EQ(series->latest().value, 20.0);
}

TEST(MemoryServer, CapacityBoundsEverySeries) {
  MemoryServer memory("mem", NodeId(0), 3);
  const SeriesKey key{ResourceKind::cpu, "h", ""};
  for (int i = 0; i < 10; ++i) memory.store(key, i, i);
  EXPECT_EQ(memory.find(key)->size(), 3u);
  EXPECT_DOUBLE_EQ(memory.find(key)->at(0).value, 7.0);
}

TEST(MemoryServer, SeparatesSeriesByKey) {
  MemoryServer memory("mem", NodeId(0));
  memory.store({ResourceKind::bandwidth, "a", "b"}, 1.0, 1.0);
  memory.store({ResourceKind::bandwidth, "b", "a"}, 1.0, 2.0);
  memory.store({ResourceKind::latency, "a", "b"}, 1.0, 3.0);
  EXPECT_EQ(memory.series().size(), 3u);
}

TEST(NameServer, ProcessAndSeriesRegistry) {
  NameServer ns(NodeId(5));
  EXPECT_EQ(ns.host(), NodeId(5));
  ns.register_process(ProcessInfo{ProcessKind::memory, "mem@h1", NodeId(1)});
  ns.register_process(ProcessInfo{ProcessKind::sensor, "sensor@h2", NodeId(2)});
  EXPECT_EQ(ns.processes().size(), 2u);
  EXPECT_EQ(ns.processes()[0].kind, ProcessKind::memory);

  const SeriesKey key{ResourceKind::bandwidth, "h1", "h2"};
  ns.register_series(key, "mem@h1");
  const auto located = ns.locate_memory(key);
  ASSERT_TRUE(located.ok());
  EXPECT_EQ(located.value(), "mem@h1");
  EXPECT_EQ(ns.registration_count(), 3u);
}

TEST(NameServer, ReRegistrationOverwrites) {
  NameServer ns(NodeId(0));
  const SeriesKey key{ResourceKind::cpu, "h", ""};
  ns.register_series(key, "mem-a");
  ns.register_series(key, "mem-b");
  EXPECT_EQ(ns.locate_memory(key).value(), "mem-b");
}

TEST(System, SeriesCapacityConfigIsHonored) {
  auto scenario = simnet::star_switch(2, mbps(100));
  simnet::Network net(std::move(scenario.topology));
  SystemConfig config;
  config.nameserver_host = "h0";
  config.series_capacity = 5;
  config.host_sensor_period_s = 1.0;
  NwsSystem system(net, config);
  system.add_host_sensor("h1");
  system.start();
  net.run_until(100.0);
  const TimeSeries* series = system.find_series({ResourceKind::cpu, "h1", ""});
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->size(), 5u);  // ring-buffer bounded
  system.stop();
}

TEST(System, ForecastsKeepLearningOnceTheRingIsFull) {
  // A full ring stops growing, yet every query must still feed the
  // forecaster what was measured since the previous query (as far as
  // the ring still holds it): ten new 1 s samples per 10 s, of which the
  // ring keeps the last four.
  auto scenario = simnet::star_switch(2, mbps(100));
  simnet::Network net(std::move(scenario.topology));
  SystemConfig config;
  config.nameserver_host = "h0";
  config.series_capacity = 4;
  config.host_sensor_period_s = 1.0;
  NwsSystem system(net, config);
  system.add_host_sensor("h1");
  system.start();
  const SeriesKey key{ResourceKind::cpu, "h1", ""};
  std::size_t previous = 0;
  for (const double t : {10.0, 20.0, 30.0, 40.0}) {
    net.run_until(t);
    const auto reply = system.query("h0", key);
    ASSERT_TRUE(reply.ok()) << reply.error().to_string();
    EXPECT_EQ(reply.value().forecast.samples, previous + config.series_capacity) << "t=" << t;
    previous = reply.value().forecast.samples;
  }
  EXPECT_GT(system.find_series(key)->appended(), config.series_capacity);
  system.stop();
}

TEST(System, QueryLatencyGrowsWithDistanceToInfrastructure) {
  // Client far from the forecaster pays more query round trips.
  auto scenario = simnet::dumbbell(2, 2, mbps(100), mbps(10), /*wan_latency=*/20e-3);
  simnet::Network net(std::move(scenario.topology));
  SystemConfig config;
  config.nameserver_host = "l0";  // infrastructure on the left site
  NwsSystem system(net, config);
  CliqueSpec spec;
  spec.name = "left";
  spec.period_s = 2.0;
  spec.members = {net.topology().find_by_name("l0").value(),
                  net.topology().find_by_name("l1").value()};
  system.add_clique(spec);
  system.start();
  net.run_until(120.0);
  const SeriesKey key{ResourceKind::bandwidth, "l0", "l1"};
  const auto near = system.query("l1", key);
  const auto far = system.query("r0", key);
  ASSERT_TRUE(near.ok());
  ASSERT_TRUE(far.ok());
  // The remote client crosses the 20 ms WAN twice (request + reply).
  EXPECT_GT(far.value().query_latency_s, near.value().query_latency_s + 0.03);
  system.stop();
}

TEST(System, MemoryPlacementFollowsReachability) {
  // Firewalled platform: a private clique must store to a memory host
  // its members can reach, regardless of round-robin order.
  auto scenario = simnet::ens_lyon();
  simnet::Network net(std::move(scenario.topology));
  SystemConfig config;
  config.nameserver_host = "the-doors";
  config.memory_hosts = {"the-doors", "popc"};
  NwsSystem system(net, config);
  CliqueSpec spec;
  spec.name = "private-myri";
  spec.period_s = 2.0;
  spec.members = {net.topology().find_by_name("myri1").value(),
                  net.topology().find_by_name("myri2").value()};
  system.add_clique(spec);
  system.start();
  net.run_until(120.0);
  // Measurements arrive even though the first-configured memory host
  // (the-doors) is unreachable from the private zone.
  EXPECT_NE(system.find_series({ResourceKind::bandwidth, "myri1", "myri2"}), nullptr);
  system.stop();
}

}  // namespace
}  // namespace envnws::nws
