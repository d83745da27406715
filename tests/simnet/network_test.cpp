#include "simnet/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "simnet/scenario.hpp"

namespace envnws::simnet {
namespace {

using units::mbps;

Topology two_hosts_direct(double bw, double latency) {
  Topology topo;
  const NodeId a = topo.add_host("a", "a.lan", Ipv4(10, 0, 0, 1));
  const NodeId b = topo.add_host("b", "b.lan", Ipv4(10, 0, 0, 2));
  topo.connect(a, b, bw, latency);
  return topo;
}

TEST(Network, SingleFlowDurationIsExact) {
  Network net(two_hosts_direct(mbps(100), 1e-3));
  const NodeId a = net.topology().find_by_name("a").value();
  const NodeId b = net.topology().find_by_name("b").value();
  std::optional<FlowResult> result;
  ASSERT_TRUE(net.start_flow(a, b, 1'000'000, [&result](const FlowResult& r) { result = r; }).ok());
  net.run();
  ASSERT_TRUE(result.has_value());
  // fwd latency + transfer + ack latency = 1ms + 80ms + 1ms.
  EXPECT_NEAR(result->duration(), 0.082, 1e-9);
  EXPECT_EQ(result->bytes, 1'000'000);
}

TEST(Network, UnackedFlowOmitsReturnLatency) {
  Network net(two_hosts_direct(mbps(100), 1e-3));
  const NodeId a = net.topology().find_by_name("a").value();
  const NodeId b = net.topology().find_by_name("b").value();
  std::optional<FlowResult> result;
  FlowOptions options;
  options.ack = false;
  ASSERT_TRUE(
      net.start_flow(a, b, 1'000'000, [&result](const FlowResult& r) { result = r; }, options)
          .ok());
  net.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_NEAR(result->duration(), 0.081, 1e-9);
}

TEST(Network, ConcurrentFlowsOnSharedLinkHalve) {
  Network net(two_hosts_direct(mbps(100), 0.0));
  const NodeId a = net.topology().find_by_name("a").value();
  const NodeId b = net.topology().find_by_name("b").value();
  int done = 0;
  double duration = 0.0;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(net.start_flow(a, b, 1'000'000, [&done, &duration](const FlowResult& r) {
                     ++done;
                     duration = r.duration();
                   }).ok());
  }
  net.run();
  EXPECT_EQ(done, 2);
  // Two equal flows on one 100 Mbps direction: 160 ms each.
  EXPECT_NEAR(duration, 0.16, 1e-9);
}

TEST(Network, LateJoinerSharesRemainingCapacity) {
  Network net(two_hosts_direct(mbps(100), 0.0));
  const NodeId a = net.topology().find_by_name("a").value();
  const NodeId b = net.topology().find_by_name("b").value();
  double first_duration = 0.0;
  double second_duration = 0.0;
  ASSERT_TRUE(net.start_flow(a, b, 1'000'000,
                             [&first_duration](const FlowResult& r) {
                               first_duration = r.duration();
                             })
                  .ok());
  net.schedule_after(0.040, [&] {
    ASSERT_TRUE(net.start_flow(a, b, 1'000'000,
                               [&second_duration](const FlowResult& r) {
                                 second_duration = r.duration();
                               })
                    .ok());
  });
  net.run();
  // First: 40ms alone (4Mb done) + shares 50/50 until its remaining 4Mb
  // drains at 50 Mbps = 80ms more -> 120 ms total.
  EXPECT_NEAR(first_duration, 0.120, 1e-6);
  // Second: 80ms shared (4Mb) + 40ms alone (4Mb at 100) = 120 ms.
  EXPECT_NEAR(second_duration, 0.120, 1e-6);
}

TEST(Network, OppositeDirectionsIndependentOnFullDuplex) {
  Network net(two_hosts_direct(mbps(100), 0.0));
  const NodeId a = net.topology().find_by_name("a").value();
  const NodeId b = net.topology().find_by_name("b").value();
  double d1 = 0.0;
  double d2 = 0.0;
  ASSERT_TRUE(net.start_flow(a, b, 1'000'000, [&d1](const FlowResult& r) { d1 = r.duration(); }).ok());
  ASSERT_TRUE(net.start_flow(b, a, 1'000'000, [&d2](const FlowResult& r) { d2 = r.duration(); }).ok());
  net.run();
  EXPECT_NEAR(d1, 0.080, 1e-9);
  EXPECT_NEAR(d2, 0.080, 1e-9);
}

TEST(Network, HubIsOneCollisionDomain) {
  Topology topo;
  const NodeId a = topo.add_host("a", "a.lan", Ipv4(10, 0, 0, 1));
  const NodeId b = topo.add_host("b", "b.lan", Ipv4(10, 0, 0, 2));
  const NodeId c = topo.add_host("c", "c.lan", Ipv4(10, 0, 0, 3));
  const NodeId d = topo.add_host("d", "d.lan", Ipv4(10, 0, 0, 4));
  const NodeId hub = topo.add_hub("hub", mbps(100));
  for (const NodeId h : {a, b, c, d}) topo.connect(h, hub, mbps(100), 0.0);
  Network net(std::move(topo));
  double d1 = 0.0;
  double d2 = 0.0;
  ASSERT_TRUE(net.start_flow(a, b, 1'000'000, [&d1](const FlowResult& r) { d1 = r.duration(); }).ok());
  ASSERT_TRUE(net.start_flow(c, d, 1'000'000, [&d2](const FlowResult& r) { d2 = r.duration(); }).ok());
  net.run();
  // Disjoint endpoints but ONE shared medium: both flows halve.
  EXPECT_NEAR(d1, 0.16, 1e-9);
  EXPECT_NEAR(d2, 0.16, 1e-9);
}

TEST(Network, SwitchPortsAreIndependent) {
  Topology topo;
  const NodeId a = topo.add_host("a", "a.lan", Ipv4(10, 0, 0, 1));
  const NodeId b = topo.add_host("b", "b.lan", Ipv4(10, 0, 0, 2));
  const NodeId c = topo.add_host("c", "c.lan", Ipv4(10, 0, 0, 3));
  const NodeId d = topo.add_host("d", "d.lan", Ipv4(10, 0, 0, 4));
  const NodeId sw = topo.add_switch("sw");
  for (const NodeId h : {a, b, c, d}) topo.connect(h, sw, mbps(100), 0.0);
  Network net(std::move(topo));
  double d1 = 0.0;
  double d2 = 0.0;
  ASSERT_TRUE(net.start_flow(a, b, 1'000'000, [&d1](const FlowResult& r) { d1 = r.duration(); }).ok());
  ASSERT_TRUE(net.start_flow(c, d, 1'000'000, [&d2](const FlowResult& r) { d2 = r.duration(); }).ok());
  net.run();
  EXPECT_NEAR(d1, 0.08, 1e-9);
  EXPECT_NEAR(d2, 0.08, 1e-9);
}

TEST(Network, FirewallBlocksDisjointZones) {
  Topology topo;
  const NodeId a = topo.add_host("a", "a.lan", Ipv4(10, 0, 0, 1));
  const NodeId b = topo.add_host("b", "b.lan", Ipv4(10, 0, 0, 2));
  topo.set_zones(a, {"left"});
  topo.set_zones(b, {"right"});
  topo.connect(a, b, mbps(100), 0.0);
  Network net(std::move(topo));
  const auto flow = net.start_flow(NodeId(0), NodeId(1), 1000, nullptr);
  ASSERT_FALSE(flow.ok());
  EXPECT_EQ(flow.error().code, ErrorCode::blocked_by_firewall);
}

TEST(Network, GatewaySharesBothZones) {
  Topology topo;
  const NodeId a = topo.add_host("a", "a.lan", Ipv4(10, 0, 0, 1));
  const NodeId gw = topo.add_host("gw", "gw.lan", Ipv4(10, 0, 0, 3));
  topo.set_zones(a, {"left"});
  topo.set_zones(gw, {"left", "right"});
  topo.connect(a, gw, mbps(100), 0.0);
  Network net(std::move(topo));
  EXPECT_TRUE(net.can_communicate(NodeId(0), NodeId(1)));
}

TEST(Network, DeadHostRefusesFlows) {
  Network net(two_hosts_direct(mbps(100), 0.0));
  net.set_host_up(NodeId(1), false);
  const auto flow = net.start_flow(NodeId(0), NodeId(1), 1000, nullptr);
  ASSERT_FALSE(flow.ok());
  EXPECT_EQ(flow.error().code, ErrorCode::host_down);
  net.set_host_up(NodeId(1), true);
  EXPECT_TRUE(net.start_flow(NodeId(0), NodeId(1), 1000, nullptr).ok());
}

TEST(Network, MessageDelayIncludesTransmission) {
  Network net(two_hosts_direct(mbps(10), 5e-3));
  double delivered_at = -1.0;
  // 1250 B = 10 kbit: 1 ms at 10 Mbps on top of the 5 ms latency.
  ASSERT_TRUE(net.send_message(NodeId(0), NodeId(1), 1250,
                               [&] { delivered_at = net.now(); }).ok());
  net.run();
  EXPECT_NEAR(delivered_at, 5e-3 + 1e-3, 1e-12);
}

TEST(Network, MessageToDeadHostIsDroppedInFlight) {
  Network net(two_hosts_direct(mbps(100), 10e-3));
  bool delivered = false;
  ASSERT_TRUE(net.send_message(NodeId(0), NodeId(1), 4, [&delivered] { delivered = true; }).ok());
  net.schedule_after(1e-3, [&net] { net.set_host_up(NodeId(1), false); });
  net.run();
  EXPECT_FALSE(delivered);
}

TEST(Network, StatsTrackPurposes) {
  Network net(two_hosts_direct(mbps(100), 0.0));
  net.start_flow(NodeId(0), NodeId(1), 1000, nullptr, FlowOptions{true, "env-probe"});
  net.start_flow(NodeId(0), NodeId(1), 500, nullptr, FlowOptions{true, "env-probe"});
  net.send_message(NodeId(0), NodeId(1), 64, nullptr, "control");
  net.run();
  const NetStats& stats = net.stats();
  EXPECT_EQ(stats.flows_started, 2u);
  EXPECT_EQ(stats.flows_completed, 2u);
  EXPECT_EQ(stats.messages_sent, 1u);
  EXPECT_EQ(stats.by_purpose.at("env-probe").bytes, 1500);
  EXPECT_EQ(stats.by_purpose.at("control").bytes, 64);
}

TEST(Network, GroundTruthMatchesTopology) {
  auto scenario = ens_lyon();
  Network net(std::move(scenario.topology));
  const NodeId doors = net.topology().find_by_name("the-doors").value();
  const NodeId popc = net.topology().find_by_name("popc").value();
  const NodeId canaria = net.topology().find_by_name("canaria").value();
  // Asymmetric: towards popc the 10 Mbps link, back the gigabit route.
  EXPECT_DOUBLE_EQ(net.ground_truth_bandwidth(doors, popc).value(), mbps(10));
  EXPECT_DOUBLE_EQ(net.ground_truth_bandwidth(popc, doors).value(), mbps(100));
  EXPECT_DOUBLE_EQ(net.ground_truth_bandwidth(doors, canaria).value(), mbps(100));
  EXPECT_GT(net.ground_truth_latency(doors, popc).value(), 0.0);
}

TEST(Network, TracerouteReportsRouterPolicies) {
  auto scenario = ens_lyon();
  Network net(std::move(scenario.topology));
  const NodeId popc = net.topology().find_by_name("popc").value();
  const NodeId edge = net.topology().find_by_name("edge").value();
  const auto hops = net.traceroute(popc, edge);
  ASSERT_TRUE(hops.ok());
  // popc -> routlhpc -> giga(silent) -> backbone -> edge.
  ASSERT_EQ(hops.value().size(), 4u);
  EXPECT_EQ(hops.value()[0].reported_name, "routlhpc.ens-lyon.fr");
  EXPECT_FALSE(hops.value()[1].responded);
  EXPECT_EQ(hops.value()[1].reported_ip, "*");
  EXPECT_EQ(hops.value()[2].reported_name, "routeur-backbone.ens-lyon.fr");
  // The edge router has no hostname: name resolution fails.
  EXPECT_EQ(hops.value()[3].reported_name, "");
  EXPECT_EQ(hops.value()[3].reported_ip, "192.168.254.1");
}

TEST(Network, TracerouteReportsZoneLocalGatewayIdentity) {
  auto scenario = ens_lyon();
  Network net(std::move(scenario.topology));
  const NodeId myri1 = net.topology().find_by_name("myri1").value();
  const NodeId popc = net.topology().find_by_name("popc").value();
  const auto hops = net.traceroute(myri1, popc);
  ASSERT_TRUE(hops.ok());
  // myri1 -> (hub3) -> myri gateway -> (hub2) -> popc; from the private
  // zone both gateways show their private identities.
  ASSERT_EQ(hops.value().size(), 2u);
  EXPECT_EQ(hops.value()[0].reported_name, "myri0.popc.private");
  EXPECT_EQ(hops.value()[0].reported_ip, "192.168.81.50");
  EXPECT_EQ(hops.value()[1].reported_name, "popc0.popc.private");
}

TEST(Network, TracerouteFromPublicSideShowsPublicIdentity) {
  auto scenario = ens_lyon();
  Network net(std::move(scenario.topology));
  const NodeId doors = net.topology().find_by_name("the-doors").value();
  const NodeId myri = net.topology().find_by_name("myri").value();
  const auto hops = net.traceroute(doors, myri);
  ASSERT_TRUE(hops.ok());
  EXPECT_EQ(hops.value().back().reported_name, "myri.ens-lyon.fr");
}

TEST(Network, JitterDisabledByDefaultDeterministicWhenOn) {
  NetworkOptions options;
  options.measurement_jitter_sigma = 0.05;
  options.seed = 7;
  Network net1(two_hosts_direct(mbps(100), 0.0), options);
  Network net2(two_hosts_direct(mbps(100), 0.0), options);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(net1.measurement_jitter(), net2.measurement_jitter());
  }
  Network plain(two_hosts_direct(mbps(100), 0.0));
  EXPECT_DOUBLE_EQ(plain.measurement_jitter(), 1.0);
}

TEST(Network, HostStateSensorsReadLoadModels) {
  Topology topo;
  const NodeId a = topo.add_host("a", "a.lan", Ipv4(10, 0, 0, 1));
  topo.set_cpu_load(a, LoadModel{1.0, 0.0, 100.0, 0.0, 0.0, 10.0, 1});
  const NodeId b = topo.add_host("b", "b.lan", Ipv4(10, 0, 0, 2));
  topo.connect(a, b, mbps(10), 0.0);
  Network net(std::move(topo));
  EXPECT_DOUBLE_EQ(net.cpu_load(NodeId(0), 0.0), 1.0);
  EXPECT_DOUBLE_EQ(net.cpu_availability(NodeId(0), 0.0), 0.5);
  EXPECT_GT(net.memory_free_mb(NodeId(0), 0.0), 0.0);
  EXPECT_GT(net.disk_free_mb(NodeId(0), 0.0), 0.0);
}

TEST(Network, RunUntilAdvancesClockWithoutEvents) {
  Network net(two_hosts_direct(mbps(100), 0.0));
  net.run_until(12.5);
  EXPECT_DOUBLE_EQ(net.now(), 12.5);
}

TEST(Network, RunUntilStopsBeforeACancelledCompletion) {
  // Flow A alone would finish at 0.08 s. B joins at 0.01 s and halves
  // A's rate, which moves A's completion to 0.15 s and leaves the
  // cancelled 0.08 s entry in the queue. run_until(0.1) must not take
  // that entry as an event due before 0.1 s and run A's completion.
  Network net(two_hosts_direct(mbps(100), 0.0));
  const NodeId a = net.topology().find_by_name("a").value();
  const NodeId b = net.topology().find_by_name("b").value();
  std::optional<FlowResult> first;
  std::optional<FlowResult> second;
  ASSERT_TRUE(net.start_flow(a, b, 1'000'000, [&first](const FlowResult& r) { first = r; }).ok());
  net.schedule_at(0.01, [&] {
    ASSERT_TRUE(
        net.start_flow(a, b, 1'000'000, [&second](const FlowResult& r) { second = r; }).ok());
  });
  net.run_until(0.1);
  EXPECT_DOUBLE_EQ(net.now(), 0.1);
  EXPECT_FALSE(first.has_value());
  net.run();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_NEAR(first->end_time, 0.15, 1e-9);
  EXPECT_NEAR(second->end_time, 0.16, 1e-9);
}

TEST(Network, FlowStartedFromACompletionCallbackReusesTheSlot) {
  Network net(two_hosts_direct(mbps(100), 1e-3));
  const NodeId a = net.topology().find_by_name("a").value();
  const NodeId b = net.topology().find_by_name("b").value();
  std::optional<FlowResult> first;
  std::optional<FlowResult> second;
  std::optional<FlowId> second_id;
  const auto first_id = net.start_flow(a, b, 1'000'000, [&](const FlowResult& r) {
    first = r;
    const auto started = net.start_flow(b, a, 500'000, [&second](const FlowResult& r2) {
      second = r2;
    });
    ASSERT_TRUE(started.ok());
    second_id = started.value();
  });
  ASSERT_TRUE(first_id.ok());
  net.run();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second_id, first_id.value());
  EXPECT_EQ(first->id, first_id.value());
  EXPECT_EQ(first->src, a);
  EXPECT_EQ(first->dst, b);
  EXPECT_EQ(first->bytes, 1'000'000);
  EXPECT_DOUBLE_EQ(first->start_time, 0.0);
  EXPECT_NEAR(first->duration(), 0.082, 1e-9);
  EXPECT_EQ(second->id, first_id.value());
  EXPECT_EQ(second->src, b);
  EXPECT_EQ(second->dst, a);
  EXPECT_EQ(second->bytes, 500'000);
  EXPECT_DOUBLE_EQ(second->start_time, first->end_time);
  EXPECT_NEAR(second->duration(), 0.042, 1e-9);
}

// A seeded random tree of switches, hubs and routers with hosts hanging
// off them; its paths cross full- and half-duplex links and hub (or, in
// wifi zones, access-point) media.
Topology random_tree(Rng& rng, bool wifi) {
  Topology topo;
  std::vector<NodeId> inner{topo.add_switch("s0")};
  for (int i = 1; i < 12; ++i) {
    const NodeId parent = inner[rng.next_below(inner.size())];
    const std::string name = "n" + std::to_string(i);
    NodeId node;
    switch (rng.next_below(3)) {
      case 0: node = topo.add_switch(name); break;
      case 1: node = topo.add_hub(name, mbps(10)); break;
      default:
        node = topo.add_router(name, name + ".lan", Ipv4(10, 1, 0, static_cast<std::uint8_t>(i)));
    }
    topo.connect(parent, node, mbps(100), 1e-4);
    inner.push_back(node);
  }
  for (int i = 0; i < 10; ++i) {
    const NodeId parent = inner[rng.next_below(inner.size())];
    const std::string name = "h" + std::to_string(i);
    const NodeId host =
        topo.add_host(name, name + ".lan", Ipv4(10, 0, 0, static_cast<std::uint8_t>(i + 1)));
    const double up = mbps(static_cast<double>(10 + 10 * rng.next_below(10)));
    topo.connect_directional(host, parent, up, up / 2, 1e-4);
  }
  LinkModelSpec model;
  model.wifi = wifi;
  topo.set_link_model(model);
  return topo;
}

TEST(Network, PathResourcesMatchASetOracle) {
  constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    Network net(random_tree(rng, seed % 2 == 0));
    const Topology& topo = net.topology();
    // The resource layout: each link's directions in link order (one
    // shared resource when half-duplex), then each hub's or wifi
    // switch's medium in node order.
    std::vector<std::uint32_t> res_ab(topo.link_count());
    std::vector<std::uint32_t> res_ba(topo.link_count());
    std::uint32_t next = 0;
    for (const Link& link : topo.links()) {
      res_ab[link.id.index()] = next++;
      res_ba[link.id.index()] = link.half_duplex ? res_ab[link.id.index()] : next++;
    }
    std::vector<std::uint32_t> medium(topo.node_count(), kNone);
    for (const Node& node : topo.nodes()) {
      const bool access_point = topo.link_model().wifi && node.kind == NodeKind::switch_;
      if (node.kind == NodeKind::hub || access_point) medium[node.id.index()] = next++;
    }
    ASSERT_EQ(next, net.resource_capacities().size()) << "seed " << seed;

    const std::vector<NodeId> hosts = topo.hosts();
    for (const NodeId src : hosts) {
      for (const NodeId dst : hosts) {
        const auto path = net.routes().path(src, dst);
        ASSERT_TRUE(path.ok());
        std::set<std::uint32_t> oracle;
        for (const Hop& hop : path.value().hops) {
          const Link& link = topo.link(hop.link);
          oracle.insert(hop.from == link.a ? res_ab[hop.link.index()] : res_ba[hop.link.index()]);
          if (medium[hop.to.index()] != kNone) oracle.insert(medium[hop.to.index()]);
        }
        const auto resources = net.path_resources(src, dst);
        ASSERT_TRUE(resources.ok());
        EXPECT_EQ(resources.value(), std::vector<std::uint32_t>(oracle.begin(), oracle.end()))
            << "seed " << seed << ": " << topo.node(src).name << " -> " << topo.node(dst).name;
      }
    }
  }
}

}  // namespace
}  // namespace envnws::simnet
