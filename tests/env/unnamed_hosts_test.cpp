// Paper §4.3 "Machines without hostname": "some hosts have no configured
// name and their IP appear in the traceroute result. ... we modified ENV
// to simply use IP address class if IP resolution fails. We also modified
// ENV to support non-routable IPs."
#include <gtest/gtest.h>

#include "common/units.hpp"
#include "env/mapper.hpp"
#include "lan_segments.hpp"
#include "env/sim_probe_engine.hpp"
#include "simnet/topology.hpp"

namespace envnws::env {
namespace {

using units::mbps;

/// Three hosts on a hub: one with proper DNS, two nameless (IP only),
/// one of them on a non-routable (RFC1918) address.
simnet::Topology nameless_lan() {
  simnet::Topology topo;
  const auto named = topo.add_host("named", "named.example.org", simnet::Ipv4(140, 77, 5, 1));
  const auto bare = topo.add_host("bare", "", simnet::Ipv4(140, 77, 5, 2));
  const auto priv = topo.add_host("priv", "", simnet::Ipv4(192, 168, 7, 3));
  const auto hub = topo.add_hub("hub", mbps(100));
  for (const auto host : {named, bare, priv}) topo.connect(host, hub, mbps(100), 50e-6);
  return topo;
}

TEST(UnnamedHosts, IpClassFallbackGroupsSites) {
  simnet::Network net(nameless_lan());
  MapperOptions options;
  SimProbeEngine engine(net, options);
  Mapper mapper(engine, options);
  ZoneSpec spec;
  spec.zone_name = "default";
  // The operator can only list nameless machines by address.
  spec.hostnames = {"named.example.org", "bare", "priv"};
  spec.master = "named.example.org";
  spec.traceroute_target = "named.example.org";
  auto result = mapper.map_zone(spec);
  ASSERT_TRUE(result.ok()) << result.error().to_string();

  // Sites: example.org for the named host; the classful networks
  // 140.77.0.0 (class B) and 192.168.7.0 (class C, non-routable but
  // KEPT, per the paper's second fix) for the nameless ones.
  std::vector<std::string> domains;
  for (const auto& site : result.value().grid.sites) domains.push_back(site.domain);
  EXPECT_NE(std::find(domains.begin(), domains.end(), "example.org"), domains.end());
  EXPECT_NE(std::find(domains.begin(), domains.end(), "140.77.0.0"), domains.end());
  EXPECT_NE(std::find(domains.begin(), domains.end(), "192.168.7.0"), domains.end());

  // The machines are identified by their IP where DNS failed.
  EXPECT_NE(result.value().grid.find_machine("140.77.5.2"), nullptr);
  EXPECT_NE(result.value().grid.find_machine("192.168.7.3"), nullptr);

  // And the mapping itself still works: one shared segment of 3.
  const auto segments = lan_segments(result.value().root);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0]->kind, NetKind::shared);
  EXPECT_EQ(segments[0]->machines.size(), 3u);
}

TEST(UnnamedHosts, NonRoutableRootKeptInStructuralTree) {
  // The ENS-Lyon structural tree roots at 192.168.254.1: "the root of
  // the structural topology ... is a non-routable IP, but dropping this
  // information may badly impact the mapping quality".
  std::vector<HostTrace> traces{
      HostTrace{"a.lan",
                {TraceHop{"10.0.0.1", "", true}, TraceHop{"192.168.254.1", "", true}}},
      HostTrace{"b.lan",
                {TraceHop{"10.0.0.2", "", true}, TraceHop{"192.168.254.1", "", true}}}};
  const StructuralNode root = build_structural_tree(traces);
  EXPECT_EQ(root.ip, "192.168.254.1");
  EXPECT_EQ(root.children.size(), 2u);  // two distinct branches preserved
}

}  // namespace
}  // namespace envnws::env
