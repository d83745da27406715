// Measurement physics of the simulated backend: what ENV's timed
// transfers (SimProbeEngine) and the NWS clique's round trips read on
// known platforms.
#include <gtest/gtest.h>

#include "common/units.hpp"
#include "env/sim_probe_engine.hpp"
#include "nws/clique.hpp"
#include "simnet/scenario.hpp"

namespace envnws::env {
namespace {

using units::mbps;

TEST(Probe, SingleMeasuresBandwidth) {
  auto scenario = simnet::star_switch(3, mbps(100));
  simnet::Network net(std::move(scenario.topology));
  SimProbeEngine engine(net, MapperOptions{});
  const auto measured = engine.bandwidth("h0", "h1");
  ASSERT_TRUE(measured.ok());
  EXPECT_NEAR(measured.value(), mbps(100), mbps(1));
  EXPECT_EQ(engine.stats().experiments, 1u);
  EXPECT_EQ(engine.stats().bytes_sent, units::mib(1));
  EXPECT_GT(engine.stats().busy_time_s, 0.0);
}

TEST(Probe, ConcurrentSeesContentionOnHub) {
  auto scenario = simnet::star_hub(4, mbps(100));
  simnet::Network net(std::move(scenario.topology));
  SimProbeEngine engine(net, MapperOptions{});
  const auto measured = engine.concurrent_bandwidth({{"h0", "h1"}, {"h2", "h3"}});
  ASSERT_TRUE(measured[0].ok());
  ASSERT_TRUE(measured[1].ok());
  EXPECT_NEAR(measured[0].value(), mbps(50), mbps(1));
  EXPECT_NEAR(measured[1].value(), mbps(50), mbps(1));
  EXPECT_EQ(engine.stats().experiments, 1u);  // one concurrent experiment
}

TEST(Probe, ConcurrentIndependentOnSwitch) {
  auto scenario = simnet::star_switch(4, mbps(100));
  simnet::Network net(std::move(scenario.topology));
  SimProbeEngine engine(net, MapperOptions{});
  const auto measured = engine.concurrent_bandwidth({{"h0", "h1"}, {"h2", "h3"}});
  EXPECT_NEAR(measured[0].value(), mbps(100), mbps(1));
  EXPECT_NEAR(measured[1].value(), mbps(100), mbps(1));
}

TEST(Probe, BlockedTransferReportsError) {
  auto scenario = simnet::ens_lyon();
  simnet::Network net(std::move(scenario.topology));
  SimProbeEngine engine(net, MapperOptions{});
  const auto measured = engine.bandwidth("the-doors", "sci3");
  ASSERT_FALSE(measured.ok());
  EXPECT_EQ(measured.error().code, ErrorCode::blocked_by_firewall);
  // The attempt is an experiment; only started flows count bytes.
  EXPECT_EQ(engine.stats().experiments, 1u);
  EXPECT_EQ(engine.stats().bytes_sent, 0);
}

TEST(Probe, RttIsTwiceOneWayLatency) {
  // The NWS clique's latency experiment is the simulator's one RTT
  // measurement: a 4-byte round trip, and TCP connect as 1.5 RTT.
  simnet::Topology topo;
  const simnet::NodeId a = topo.add_host("a", "a.lan", simnet::Ipv4(10, 0, 0, 1));
  const simnet::NodeId b = topo.add_host("b", "b.lan", simnet::Ipv4(10, 0, 0, 2));
  topo.connect(a, b, mbps(100), 5e-3);
  simnet::Network net(std::move(topo));
  nws::MemoryServer memory("mem", a);
  nws::CliqueSpec spec;
  spec.name = "pair";
  spec.members = {a, b};
  nws::Clique clique(net, spec, memory);
  clique.start();
  net.run_until(100.0);
  clique.stop();
  const nws::TimeSeries* rtt = memory.find({nws::ResourceKind::latency, "a", "b"});
  ASSERT_NE(rtt, nullptr);
  EXPECT_NEAR(rtt->latest().value, 10e-3, 1e-5);
  const nws::TimeSeries* connect = memory.find({nws::ResourceKind::connect_time, "a", "b"});
  ASSERT_NE(connect, nullptr);
  EXPECT_NEAR(connect->latest().value, 15e-3, 1e-4);
}

TEST(Probe, StabilizationGapSeparatesExperiments) {
  auto scenario = simnet::star_switch(2, mbps(100));
  simnet::Network net(std::move(scenario.topology));
  MapperOptions options;
  options.probe_bytes = 1000;
  options.stabilization_gap_s = 30.0;
  SimProbeEngine engine(net, options);
  ASSERT_TRUE(engine.bandwidth("h0", "h1").ok());
  const double after_first = net.now();
  EXPECT_GE(after_first, 30.0);
  ASSERT_TRUE(engine.bandwidth("h0", "h1").ok());
  EXPECT_GE(net.now(), after_first + 30.0);
}

// --- parameterized: hub/switch families at several sizes -----------------

std::vector<BandwidthRequest> disjoint_pairs(int n) {
  std::vector<BandwidthRequest> requests;
  for (int i = 0; i < n; ++i) {
    requests.push_back({"h" + std::to_string(2 * i), "h" + std::to_string(2 * i + 1)});
  }
  return requests;
}

class StarFamily : public ::testing::TestWithParam<int> {};

TEST_P(StarFamily, HubShareScalesInverselyWithFlows) {
  const int n = GetParam();
  auto scenario = simnet::star_hub(2 * n, mbps(100));
  simnet::Network net(std::move(scenario.topology));
  SimProbeEngine engine(net, MapperOptions{});
  for (const auto& measured : engine.concurrent_bandwidth(disjoint_pairs(n))) {
    ASSERT_TRUE(measured.ok());
    EXPECT_NEAR(measured.value(), mbps(100) / n, mbps(100) / n * 0.02);
  }
}

TEST_P(StarFamily, SwitchFlowsStayAtLineRate) {
  const int n = GetParam();
  auto scenario = simnet::star_switch(2 * n, mbps(100));
  simnet::Network net(std::move(scenario.topology));
  SimProbeEngine engine(net, MapperOptions{});
  for (const auto& measured : engine.concurrent_bandwidth(disjoint_pairs(n))) {
    ASSERT_TRUE(measured.ok());
    EXPECT_NEAR(measured.value(), mbps(100), mbps(2));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, StarFamily, ::testing::Values(1, 2, 3, 5, 8));

}  // namespace
}  // namespace envnws::env
