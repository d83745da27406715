#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <iterator>
#include <limits>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "api/scenario_registry.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "simnet/routing.hpp"
#include "simnet/scenario.hpp"
#include "simnet/topology.hpp"

namespace envnws::simnet {
namespace {

using units::mbps;

TEST(Topology, BuildersAssignKindsAndNames) {
  Topology topo;
  const NodeId host = topo.add_host("h", "h.lan", Ipv4(10, 0, 0, 1));
  const NodeId hub = topo.add_hub("hub", mbps(100));
  const NodeId sw = topo.add_switch("sw");
  const NodeId router = topo.add_router("r", "r.lan", Ipv4(10, 0, 0, 254));
  EXPECT_EQ(topo.node(host).kind, NodeKind::host);
  EXPECT_EQ(topo.node(hub).kind, NodeKind::hub);
  EXPECT_EQ(topo.node(sw).kind, NodeKind::switch_);
  EXPECT_EQ(topo.node(router).kind, NodeKind::router);
  EXPECT_EQ(topo.node_count(), 4u);
  EXPECT_TRUE(topo.find_by_name("hub").ok());
  EXPECT_FALSE(topo.find_by_name("nope").ok());
}

TEST(Topology, HubLinksAreHalfDuplex) {
  Topology topo;
  const NodeId host = topo.add_host("h", "h.lan", Ipv4(10, 0, 0, 1));
  const NodeId hub = topo.add_hub("hub", mbps(10));
  const NodeId sw = topo.add_switch("sw");
  const LinkId to_hub = topo.connect(host, hub, mbps(10), 1e-6);
  const LinkId to_switch = topo.connect(host, sw, mbps(100), 1e-6);
  EXPECT_TRUE(topo.link(to_hub).half_duplex);
  EXPECT_FALSE(topo.link(to_switch).half_duplex);
}

TEST(Topology, FqdnAndAliasLookup) {
  Topology topo;
  const NodeId gw = topo.add_host("popc", "popc.ens-lyon.fr", Ipv4(140, 77, 12, 51));
  topo.add_alias(gw, HostAlias{"popc0.popc.private", Ipv4(192, 168, 81, 51), "popc.private"});
  EXPECT_EQ(topo.find_host_by_fqdn("popc.ens-lyon.fr").value(), gw);
  EXPECT_EQ(topo.find_host_by_fqdn("popc0.popc.private").value(), gw);
  EXPECT_FALSE(topo.find_host_by_fqdn("other").ok());
  // Alias registration adds the zone.
  EXPECT_EQ(topo.node(gw).zones.count("popc.private"), 1u);
}

TEST(Topology, ZoneQueries) {
  Topology topo;
  const NodeId a = topo.add_host("a", "a.lan", Ipv4(10, 0, 0, 1));
  const NodeId b = topo.add_host("b", "b.lan", Ipv4(10, 0, 0, 2));
  const NodeId gw = topo.add_host("gw", "gw.lan", Ipv4(10, 0, 0, 3));
  topo.set_zones(a, {"left"});
  topo.set_zones(b, {"right"});
  topo.set_zones(gw, {"left", "right"});
  EXPECT_EQ(topo.hosts_in_zone("left").size(), 2u);
  EXPECT_EQ(topo.hosts_in_zone("right").size(), 2u);
  const auto zones = topo.zones();
  EXPECT_EQ(zones.size(), 2u);
}

TEST(Topology, ValidateCatchesProblems) {
  {
    Topology topo;
    const NodeId a = topo.add_host("a", "a.lan", Ipv4(10, 0, 0, 1));
    const NodeId b = topo.add_host("b", "b.lan", Ipv4(10, 0, 0, 2));
    topo.connect_directional(a, b, 0.0, mbps(1), 1e-6);
    EXPECT_FALSE(topo.validate().ok());
  }
  {
    Topology topo;
    topo.add_hub("hub", 0.0);
    EXPECT_FALSE(topo.validate().ok());
  }
  {
    Topology topo;
    const NodeId a = topo.add_host("a", "a.lan", Ipv4(10, 0, 0, 1));
    const NodeId b = topo.add_host("b", "b.lan", Ipv4(10, 0, 0, 2));
    topo.connect(a, b, mbps(1), -1.0);
    EXPECT_FALSE(topo.validate().ok());
  }
  {
    Topology topo;
    const NodeId a = topo.add_host("a", "a.lan", Ipv4(10, 0, 0, 1));
    const NodeId b = topo.add_host("b", "b.lan", Ipv4(10, 0, 0, 2));
    topo.connect(a, b, std::numeric_limits<double>::quiet_NaN(), 1e-6);
    EXPECT_FALSE(topo.validate().ok());
  }
  {
    Topology topo;
    const NodeId a = topo.add_host("a", "a.lan", Ipv4(10, 0, 0, 1));
    const NodeId b = topo.add_host("b", "b.lan", Ipv4(10, 0, 0, 2));
    topo.connect(a, b, std::numeric_limits<double>::infinity(), 1e-6);
    EXPECT_FALSE(topo.validate().ok());
  }
  {
    Topology topo;
    const NodeId a = topo.add_host("a", "a.lan", Ipv4(10, 0, 0, 1));
    const NodeId b = topo.add_host("b", "b.lan", Ipv4(10, 0, 0, 2));
    topo.connect(a, b, mbps(1), 1e-6);
    EXPECT_TRUE(topo.validate().ok());
  }
}

TEST(Topology, ValidateRejectsBadRoutingWeights) {
  for (const double bad : {-1.0, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    for (const bool forward : {true, false}) {
      Topology topo;
      const NodeId a = topo.add_host("a", "a.lan", Ipv4(10, 0, 0, 1));
      const NodeId b = topo.add_host("b", "b.lan", Ipv4(10, 0, 0, 2));
      const LinkId link = topo.connect(a, b, mbps(1), 1e-6);
      topo.set_routing_weight(link, forward ? bad : 1.0, forward ? 1.0 : bad);
      const Status status = topo.validate();
      ASSERT_FALSE(status.ok()) << bad << (forward ? " a->b" : " b->a");
      EXPECT_EQ(status.error().code, ErrorCode::invalid_argument);
      EXPECT_NE(status.error().message.find("routing weight"), std::string::npos);
    }
  }
  Topology topo;
  const NodeId a = topo.add_host("a", "a.lan", Ipv4(10, 0, 0, 1));
  const NodeId b = topo.add_host("b", "b.lan", Ipv4(10, 0, 0, 2));
  topo.set_routing_weight(topo.connect(a, b, mbps(1), 1e-6), 0.0, 0.5);
  EXPECT_TRUE(topo.validate().ok());  // zero and fractional weights are fine
}

TEST(Routing, ShortestPathByWeight) {
  Topology topo;
  const NodeId a = topo.add_host("a", "a.lan", Ipv4(10, 0, 0, 1));
  const NodeId r1 = topo.add_router("r1", "r1.lan", Ipv4(10, 0, 0, 251));
  const NodeId r2 = topo.add_router("r2", "r2.lan", Ipv4(10, 0, 0, 252));
  const NodeId b = topo.add_host("b", "b.lan", Ipv4(10, 0, 0, 2));
  topo.connect(a, r1, mbps(100), 1e-6);
  topo.connect(r1, r2, mbps(100), 1e-6);
  topo.connect(r2, b, mbps(100), 1e-6);
  // Direct but expensive detour.
  const LinkId direct = topo.connect(a, b, mbps(100), 1e-6);
  topo.set_routing_weight(direct, 10.0, 10.0);

  RouteTable routes(topo);
  const auto path = routes.path(a, b);
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path.value().hops.size(), 3u);  // a-r1-r2-b beats weight-10 direct
}

TEST(Routing, DirectionalWeightsYieldAsymmetricRoutes) {
  Topology topo;
  const NodeId a = topo.add_host("a", "a.lan", Ipv4(10, 0, 0, 1));
  const NodeId b = topo.add_host("b", "b.lan", Ipv4(10, 0, 0, 2));
  const NodeId via = topo.add_router("via", "via.lan", Ipv4(10, 0, 0, 250));
  const LinkId slow = topo.connect(a, b, mbps(10), 1e-6, "slow");
  topo.set_routing_weight(slow, 1.0, 100.0);
  const LinkId leg1 = topo.connect(a, via, mbps(1000), 1e-6);
  topo.set_routing_weight(leg1, 50.0, 1.0);
  const LinkId leg2 = topo.connect(via, b, mbps(1000), 1e-6);
  topo.set_routing_weight(leg2, 50.0, 1.0);

  RouteTable routes(topo);
  const auto forward = routes.path(a, b);
  const auto backward = routes.path(b, a);
  ASSERT_TRUE(forward.ok());
  ASSERT_TRUE(backward.ok());
  EXPECT_EQ(forward.value().hops.size(), 1u);   // direct slow link
  EXPECT_EQ(backward.value().hops.size(), 2u);  // via the fast detour
  EXPECT_DOUBLE_EQ(forward.value().bottleneck_bandwidth(topo), mbps(10));
  EXPECT_DOUBLE_EQ(backward.value().bottleneck_bandwidth(topo), mbps(1000));
}

TEST(Routing, UnreachableReportsError) {
  Topology topo;
  const NodeId a = topo.add_host("a", "a.lan", Ipv4(10, 0, 0, 1));
  const NodeId b = topo.add_host("b", "b.lan", Ipv4(10, 0, 0, 2));
  (void)b;
  RouteTable routes(topo);
  const auto path = routes.path(a, NodeId(1));
  ASSERT_FALSE(path.ok());
  EXPECT_EQ(path.error().code, ErrorCode::unreachable);
  EXPECT_TRUE(routes.path(a, a).ok());  // self route is empty but valid
}

TEST(Routing, PathLatencyAndNodes) {
  Topology topo;
  const NodeId a = topo.add_host("a", "a.lan", Ipv4(10, 0, 0, 1));
  const NodeId r = topo.add_router("r", "r.lan", Ipv4(10, 0, 0, 250));
  const NodeId b = topo.add_host("b", "b.lan", Ipv4(10, 0, 0, 2));
  topo.connect(a, r, mbps(100), 1e-3);
  topo.connect(r, b, mbps(100), 2e-3);
  RouteTable routes(topo);
  const auto path = routes.path(a, b);
  ASSERT_TRUE(path.ok());
  EXPECT_DOUBLE_EQ(path.value().total_latency(topo), 3e-3);
  const auto& hops = path.value().hops;
  EXPECT_EQ(path.value().src, a);
  ASSERT_EQ(hops.size(), 2u);
  EXPECT_EQ(hops[0].to, r);
  EXPECT_EQ(hops[1].to, b);
}

bool same_hops(const Path& a, const Path& b) {
  return std::equal(a.hops.begin(), a.hops.end(), b.hops.begin(), b.hops.end(),
                    [](const Hop& x, const Hop& y) {
                      return x.link == y.link && x.from == y.from && x.to == y.to;
                    });
}

/// Hosts each linked to both of two switches: no host is a leaf, so every
/// host source owns its own tree.
Topology dual_homed(int n) {
  Topology topo;
  const NodeId left = topo.add_switch("left");
  const NodeId right = topo.add_switch("right");
  for (int i = 0; i < n; ++i) {
    const std::string name = "h" + std::to_string(i);
    const NodeId host = topo.add_host(
        name, name + ".lan",
        Ipv4(10, 0, static_cast<std::uint8_t>(i / 250), static_cast<std::uint8_t>(1 + i % 250)));
    topo.connect(host, left, mbps(100), 1e-6);
    topo.connect(host, right, mbps(100), 1e-6);
  }
  return topo;
}

TEST(Routing, CacheHoldsAtMostBudgetOverNodeCountTrees) {
  // n host sources with n*n > kMaxCachedHops overflow the predecessor
  // budget of n+2 nodes per tree, so the cache must evict; a rebuilt tree
  // must route exactly as the source's first, freshly built one did.
  const int n =
      static_cast<int>(std::sqrt(static_cast<double>(RouteTable::kMaxCachedHops))) + 1;
  const Topology topo = dual_homed(n);
  const std::vector<NodeId> hosts = topo.hosts();
  const std::size_t max_trees = RouteTable::kMaxCachedHops / topo.node_count();
  ASSERT_LT(max_trees, hosts.size());

  RouteTable routes(topo);
  std::vector<Path> first;  // sweep 0's path per source, from a fresh tree
  for (std::size_t sweep = 0; sweep < 2; ++sweep) {
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      const NodeId dst = hosts[(i + 1) % hosts.size()];
      const auto path = routes.path(hosts[i], dst);
      ASSERT_TRUE(path.ok());
      ASSERT_LE(routes.cached_trees(), max_trees);
      if (sweep == 0) {
        first.push_back(path.value());
        continue;
      }
      // The second sweep only meets evicted trees.
      EXPECT_TRUE(same_hops(path.value(), first[i])) << topo.node(hosts[i]).name;
    }
  }
  EXPECT_EQ(routes.cached_trees(), max_trees);
  EXPECT_EQ(routes.trees_built(), 2 * hosts.size());
}

/// The flow pattern of ENV's full protocol: path(a,b), then the ack's
/// path(b,a), over every ordered pair of `sources`.
void sweep_all_pairs(RouteTable& routes, const std::vector<NodeId>& sources) {
  for (const NodeId a : sources) {
    for (const NodeId b : sources) {
      if (a == b) continue;
      ASSERT_TRUE(routes.path(a, b).ok());
      ASSERT_TRUE(routes.path(b, a).ok());
    }
  }
}

TEST(Routing, AllPairsSweepBuildsEachSourceTreeOnce) {
  // Every star host is a leaf of the switch: the whole sweep routes
  // through the switch's one tree.
  const Scenario scenario = star_switch(200, mbps(100));
  RouteTable routes(scenario.topology);
  sweep_all_pairs(routes, scenario.topology.hosts());
  EXPECT_EQ(routes.trees_built(), 1u);
  EXPECT_EQ(routes.cached_trees(), 1u);
}

TEST(Routing, AllPairsSweepBuildsEachNonLeafSourceTreeOnce) {
  // A torus host is a leaf of its router; the routers are not leaves.
  // Within the budget each router's tree is built once, and the hosts
  // add none of their own.
  const Topology topo = torus3d(4, 4, 4, mbps(100)).topology;
  std::vector<NodeId> nodes;
  for (std::size_t i = 0; i < topo.node_count(); ++i) {
    nodes.emplace_back(static_cast<NodeId::underlying_type>(i));
  }
  const std::size_t routers = topo.node_count() - topo.hosts().size();
  RouteTable routes(topo);
  sweep_all_pairs(routes, nodes);
  EXPECT_EQ(routes.trees_built(), routers);
  EXPECT_EQ(routes.cached_trees(), routers);
}

/// Per-source Dijkstra with no leaf collapse: the reference RouteTable
/// must match hop for hop.
std::vector<Hop> reference_tree(const Topology& topo, NodeId src) {
  const std::size_t n = topo.node_count();
  std::vector<Hop> pred(n, Hop{LinkId::invalid(), NodeId::invalid(), NodeId::invalid()});
  std::vector<double> dist(n, std::numeric_limits<double>::infinity());
  dist[src.index()] = 0.0;
  using Entry = std::pair<double, NodeId::underlying_type>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  heap.emplace(0.0, src.value());
  while (!heap.empty()) {
    const auto [d, uv] = heap.top();
    heap.pop();
    const NodeId u{uv};
    if (d > dist[u.index()]) continue;
    for (const LinkId lid : topo.node(u).links) {
      const NodeId v = topo.peer(lid, u);
      const double nd = d + topo.routing_weight(lid, u);
      if (nd < dist[v.index()] ||
          (nd == dist[v.index()] && pred[v.index()].link.valid() && lid < pred[v.index()].link)) {
        dist[v.index()] = nd;
        pred[v.index()] = Hop{lid, u, v};
        heap.emplace(nd, v.value());
      }
    }
  }
  return pred;
}

/// Every (src, dst) pair of `topo`, RouteTable against reference_tree.
void expect_reference_routes(const std::string& label, const Topology& topo) {
  RouteTable routes(topo);
  for (std::size_t s = 0; s < topo.node_count(); ++s) {
    const NodeId src{static_cast<NodeId::underlying_type>(s)};
    const std::vector<Hop> pred = reference_tree(topo, src);
    for (std::size_t d = 0; d < topo.node_count(); ++d) {
      const NodeId dst{static_cast<NodeId::underlying_type>(d)};
      const auto got = routes.path(src, dst);
      const std::string where =
          label + ": " + topo.node(src).name + " -> " + topo.node(dst).name;
      if (src != dst && !pred[d].link.valid()) {
        ASSERT_FALSE(got.ok()) << where;
        EXPECT_EQ(got.error().code, ErrorCode::unreachable) << where;
        continue;
      }
      ASSERT_TRUE(got.ok()) << where;
      Path want{src, dst, {}};
      for (NodeId cursor = dst; cursor != src; cursor = pred[cursor.index()].from) {
        want.hops.push_back(pred[cursor.index()]);
      }
      std::reverse(want.hops.begin(), want.hops.end());
      ASSERT_TRUE(same_hops(got.value(), want)) << where;
    }
  }
}

TEST(Routing, MatchesReferenceDijkstraOnEveryRegistryFamily) {
  for (const auto* entry : api::ScenarioRegistry::builtin().entries()) {
    if (entry->name == "file") continue;  // needs a GridML path
    auto scenario = api::ScenarioRegistry::builtin().make(entry->name);
    ASSERT_TRUE(scenario.ok()) << entry->name;
    expect_reference_routes(entry->name, scenario.value().topology);
  }
  for (const std::string spec : {"star-switch:40", "constellation:3x4", "torus:3x3x2",
                                 "multi-firewall:3x3", "random-lan:7", "fat-tree:4"}) {
    auto scenario = api::ScenarioRegistry::builtin().make(spec);
    ASSERT_TRUE(scenario.ok()) << spec;
    expect_reference_routes(spec, scenario.value().topology);
  }
}

/// A random connected router mesh with parallel links, directional dyadic
/// weights drawn from few values (so equal-cost paths are common), leaf
/// hosts on random routers, a leaf on a two-link gateway, and a detached
/// two-node island (leaves of each other, unreachable from the rest).
Topology random_leafy_graph(std::uint64_t seed) {
  Rng rng(seed);
  const double weights[] = {0.5, 1.0, 1.0, 2.0, 4.0};
  const auto weight = [&] { return weights[rng.next_below(std::size(weights))]; };
  Topology topo;
  std::vector<NodeId> routers;
  const std::size_t router_count = 4 + rng.next_below(9);
  for (std::size_t i = 0; i < router_count; ++i) {
    const std::string name = "r" + std::to_string(i);
    routers.push_back(topo.add_router(name, name + ".net", Ipv4(10, 1, 0, 1 + i)));
    if (i == 0) continue;
    const LinkId tree = topo.connect(routers[i], routers[rng.next_below(i)], mbps(100), 1e-6);
    topo.set_routing_weight(tree, weight(), weight());
  }
  for (std::size_t extra = rng.next_below(2 * router_count); extra > 0; --extra) {
    const NodeId a = routers[rng.next_below(router_count)];
    const NodeId b = routers[rng.next_below(router_count)];
    if (a == b) continue;
    const LinkId link = topo.connect(a, b, mbps(100), 1e-6);  // may parallel an earlier one
    topo.set_routing_weight(link, weight(), weight());
  }
  const std::size_t host_count = 3 + rng.next_below(12);
  for (std::size_t i = 0; i < host_count; ++i) {
    const std::string name = "h" + std::to_string(i);
    const NodeId host = topo.add_host(name, name + ".lan", Ipv4(10, 2, 0, 1 + i));
    const LinkId link =
        topo.connect(host, routers[rng.next_below(router_count)], mbps(100), 1e-6);
    topo.set_routing_weight(link, weight(), weight());
  }
  const NodeId gateway = topo.add_router("gw2", "gw2.net", Ipv4(10, 3, 0, 1));
  topo.connect(gateway, routers[rng.next_below(router_count)], mbps(100), 1e-6);
  const NodeId behind = topo.add_host("behind", "behind.lan", Ipv4(10, 3, 0, 2));
  topo.set_routing_weight(topo.connect(behind, gateway, mbps(100), 1e-6), weight(), weight());
  const NodeId island_a = topo.add_host("island-a", "island-a.lan", Ipv4(10, 4, 0, 1));
  const NodeId island_b = topo.add_host("island-b", "island-b.lan", Ipv4(10, 4, 0, 2));
  topo.connect(island_a, island_b, mbps(100), 1e-6);
  return topo;
}

TEST(Routing, MatchesReferenceDijkstraOnRandomGraphsWithLeaves) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    expect_reference_routes("seed " + std::to_string(seed), random_leafy_graph(seed));
  }
}

TEST(LoadModel, DeterministicAndClamped) {
  LoadModel model{0.5, 0.4, 100.0, 0.0, 0.3, 5.0, 99};
  const double v1 = model.at(42.0);
  const double v2 = model.at(42.0);
  EXPECT_DOUBLE_EQ(v1, v2);
  for (double t = 0.0; t < 500.0; t += 7.3) {
    EXPECT_GE(model.at(t), 0.0);
  }
}

TEST(LoadModel, SinusoidMovesLoad) {
  LoadModel model{1.0, 0.5, 100.0, 0.0, 0.0, 10.0, 1};
  EXPECT_NEAR(model.at(25.0), 1.5, 1e-9);  // sin peak at quarter period
  EXPECT_NEAR(model.at(75.0), 0.5, 1e-9);
}

}  // namespace
}  // namespace envnws::simnet
