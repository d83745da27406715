#include <gtest/gtest.h>

#include "common/units.hpp"
#include "simnet/network.hpp"
#include "simnet/render.hpp"
#include "simnet/scenario.hpp"

namespace envnws::simnet {
namespace {

using units::mbps;

// --- scenarios -----------------------------------------------------------

TEST(Scenario, AllBuildersValidate) {
  EXPECT_TRUE(ens_lyon().topology.validate().ok());
  EXPECT_TRUE(star_hub(5, mbps(10)).topology.validate().ok());
  EXPECT_TRUE(star_switch(5, mbps(100)).topology.validate().ok());
  EXPECT_TRUE(dumbbell(3, 3, mbps(100), mbps(10)).topology.validate().ok());
  EXPECT_TRUE(two_cluster_transversal(3, mbps(100), mbps(100)).topology.validate().ok());
  EXPECT_TRUE(vlan_lab(3, 2, mbps(100)).topology.validate().ok());
  EXPECT_TRUE(wan_constellation(3, 4, mbps(100), mbps(10)).topology.validate().ok());
  EXPECT_TRUE(random_lan(7).topology.validate().ok());
}

TEST(Scenario, EnsLyonGroundTruthHolds) {
  auto scenario = ens_lyon();
  Network net(std::move(scenario.topology));
  const auto id = [&net](const std::string& name) {
    return net.topology().find_by_name(name).value();
  };
  // sci cluster: ~33 Mbps switched ports.
  EXPECT_DOUBLE_EQ(net.ground_truth_bandwidth(id("sci1"), id("sci2")).value(), mbps(33));
  // private hosts unreachable from the public side.
  EXPECT_FALSE(net.can_communicate(id("the-doors"), id("sci1")));
  EXPECT_TRUE(net.can_communicate(id("popc"), id("sci1")));
  EXPECT_TRUE(net.can_communicate(id("the-doors"), id("popc")));
  // the asymmetric bottleneck.
  EXPECT_DOUBLE_EQ(net.ground_truth_bandwidth(id("the-doors"), id("myri")).value(), mbps(10));
  EXPECT_DOUBLE_EQ(net.ground_truth_bandwidth(id("myri"), id("the-doors")).value(), mbps(100));
}

TEST(Scenario, RandomLanIsDeterministicPerSeed) {
  const auto a = random_lan(123);
  const auto b = random_lan(123);
  EXPECT_EQ(a.topology.node_count(), b.topology.node_count());
  EXPECT_EQ(a.topology.link_count(), b.topology.link_count());
  ASSERT_EQ(a.ground_truth.size(), b.ground_truth.size());
  for (std::size_t i = 0; i < a.ground_truth.size(); ++i) {
    EXPECT_EQ(a.ground_truth[i].kind, b.ground_truth[i].kind);
    EXPECT_EQ(a.ground_truth[i].member_names, b.ground_truth[i].member_names);
  }
}

TEST(Scenario, TransversalLinkCarriesInterClusterTraffic) {
  auto scenario = two_cluster_transversal(2, mbps(100), mbps(50));
  Network net(std::move(scenario.topology));
  const NodeId a0 = net.topology().find_by_name("a0").value();
  const NodeId b0 = net.topology().find_by_name("b0").value();
  // Route a0 -> b0 takes the transversal link C (cheap weight), which
  // caps at 50; the master-side path would give 100.
  EXPECT_DOUBLE_EQ(net.ground_truth_bandwidth(a0, b0).value(), mbps(50));
}

TEST(Scenario, RenderersProduceOutput) {
  auto scenario = ens_lyon();
  const std::string physical = render_physical(scenario.topology);
  EXPECT_NE(physical.find("the-doors"), std::string::npos);
  EXPECT_NE(physical.find("hub2"), std::string::npos);
  const std::string links = render_link_table(scenario.topology);
  EXPECT_NE(links.find("slow-10mbps"), std::string::npos);
}

}  // namespace
}  // namespace envnws::simnet
