// Mapper behaviour against simulated platforms with known ground truth.
#include <gtest/gtest.h>

#include "common/units.hpp"
#include "env/mapper.hpp"
#include "lan_segments.hpp"
#include "env/scenario_zones.hpp"
#include "env/sim_probe_engine.hpp"
#include "simnet/scenario.hpp"

namespace envnws::env {
namespace {

using simnet::GroundTruthNet;
using units::mbps;

ZoneMapResult map_single_zone(simnet::Network& net, const simnet::Scenario& scenario,
                              MapperOptions options = {}) {
  SimProbeEngine engine(net, options);
  Mapper mapper(engine, options);
  const auto zones = zones_from_scenario(scenario);
  EXPECT_TRUE(zones.ok());
  EXPECT_EQ(zones.value().size(), 1u);
  auto result = mapper.map_zone(zones.value().front());
  EXPECT_TRUE(result.ok()) << (result.ok() ? "" : result.error().to_string());
  return result.value();
}

TEST(MapperSim, StarHubClassifiedShared) {
  auto scenario = simnet::star_hub(5, mbps(100));
  simnet::Network net(scenario.topology);
  const auto result = map_single_zone(net, scenario);
  const auto segments = lan_segments(result.root);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0]->kind, NetKind::shared);
  EXPECT_EQ(segments[0]->machines.size(), 5u);  // master included
  EXPECT_NEAR(segments[0]->base_bw_bps, mbps(100), mbps(3));
  EXPECT_NEAR(segments[0]->base_local_bw_bps, mbps(100), mbps(3));
}

TEST(MapperSim, StarSwitchClassifiedSwitched) {
  auto scenario = simnet::star_switch(5, mbps(100));
  simnet::Network net(scenario.topology);
  const auto result = map_single_zone(net, scenario);
  const auto segments = lan_segments(result.root);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0]->kind, NetKind::switched);
  EXPECT_NEAR(segments[0]->base_local_bw_bps, mbps(100), mbps(3));
}

TEST(MapperSim, TwoHostHubPairStillDetectedShared) {
  // Size-2 cluster: the jam experiment uses the A->B fallback.
  auto scenario = simnet::star_hub(2, mbps(10));
  simnet::Network net(scenario.topology);
  const auto result = map_single_zone(net, scenario);
  const auto segments = lan_segments(result.root);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0]->kind, NetKind::shared);
}

TEST(MapperSim, TwoHostSwitchPairDetectedSwitched) {
  auto scenario = simnet::star_switch(2, mbps(100));
  simnet::Network net(scenario.topology);
  const auto result = map_single_zone(net, scenario);
  const auto segments = lan_segments(result.root);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0]->kind, NetKind::switched);
}

TEST(MapperSim, DumbbellSplitsByBandwidthRatio) {
  // Left cluster at 100 Mbps port speed, right reachable through a
  // 10 Mbps bottleneck: the x3 host-bandwidth rule separates them even
  // before structure, and the tree keeps them in distinct branches.
  auto scenario = simnet::dumbbell(3, 3, mbps(100), mbps(10));
  simnet::Network net(scenario.topology);
  const auto result = map_single_zone(net, scenario);
  const auto segments = lan_segments(result.root);
  ASSERT_GE(segments.size(), 2u);
  // Find the remote cluster: base bw ~10, local ~100.
  bool found_remote = false;
  for (const auto* segment : segments) {
    if (segment->base_bw_bps < mbps(15)) {
      found_remote = true;
      EXPECT_GT(segment->base_local_bw_bps, mbps(90));
      EXPECT_EQ(segment->machines.size(), 3u);
    }
  }
  EXPECT_TRUE(found_remote);
}

TEST(MapperSim, MapperStatsAccountExperiments) {
  auto scenario = simnet::star_hub(4, mbps(100));
  simnet::Network net(scenario.topology);
  const auto result = map_single_zone(net, scenario);
  EXPECT_GT(result.stats.experiments, 5u);
  EXPECT_GT(result.stats.bytes_sent, 0);
  EXPECT_GT(result.stats.duration_s, 0.0);
}

TEST(MapperSim, GridmlOutputCarriesEnvProperties) {
  auto scenario = simnet::star_hub(3, mbps(100));
  simnet::Network net(scenario.topology);
  MapperOptions options;
  SimProbeEngine engine(net, options);
  Mapper mapper(engine, options);
  const auto zones = zones_from_scenario(scenario);
  ASSERT_TRUE(zones.ok());
  const auto result = mapper.map(zones.value());
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  // The view is published once, in the merged document; a zone's own
  // document carries its sites only.
  const auto zone = mapper.map_zone(zones.value().front());
  ASSERT_TRUE(zone.ok()) << zone.error().to_string();
  EXPECT_FALSE(zone.value().grid.sites.empty());
  EXPECT_TRUE(zone.value().grid.networks.empty());
  const std::string xml = result.value().grid.to_string();
  EXPECT_NE(xml.find("ENV_Shared"), std::string::npos);
  EXPECT_NE(xml.find("ENV_base_BW"), std::string::npos);
  EXPECT_NE(xml.find("h1.lan"), std::string::npos);
  // Host inventory captured (phase 4.2.1.2 properties are only present
  // when the scenario decorates hosts; the lan family does not, so just
  // check the SITE skeleton).
  EXPECT_NE(xml.find("<SITE domain=\"lan\""), std::string::npos);
}

TEST(MapperSim, MasterAbsentFromHostListIsAnError) {
  auto scenario = simnet::star_hub(3, mbps(100));
  simnet::Network net(scenario.topology);
  MapperOptions options;
  SimProbeEngine engine(net, options);
  Mapper mapper(engine, options);
  ZoneSpec spec;
  spec.zone_name = "default";
  spec.hostnames = {"h0.lan", "h1.lan"};
  spec.master = "nonexistent";
  spec.traceroute_target = "h0.lan";
  EXPECT_FALSE(mapper.map_zone(spec).ok());
}

TEST(MapperSim, UnknownHostnameBecomesWarningNotFailure) {
  auto scenario = simnet::star_hub(3, mbps(100));
  simnet::Network net(scenario.topology);
  MapperOptions options;
  SimProbeEngine engine(net, options);
  Mapper mapper(engine, options);
  ZoneSpec spec;
  spec.zone_name = "default";
  spec.hostnames = {"h0.lan", "h1.lan", "ghost.lan"};
  spec.master = "h0.lan";
  spec.traceroute_target = "h1.lan";
  const auto result = mapper.map_zone(spec);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().warnings.empty());
}

TEST(MapperSim, VlanLabSeesLogicalNotPhysicalTopology) {
  // One physical chassis, two VLANs: ENV must report two independent
  // switched segments (the logical view), not one.
  auto scenario = simnet::vlan_lab(3, 2, mbps(100));
  simnet::Network net(scenario.topology);
  const auto result = map_single_zone(net, scenario);
  const auto segments = lan_segments(result.root);
  ASSERT_EQ(segments.size(), 2u);
  for (const auto* segment : segments) {
    EXPECT_EQ(segment->kind, NetKind::switched);
    EXPECT_EQ(segment->machines.size(), 3u);
  }
}

TEST(MapperSim, ThresholdInjectionChangesVerdict) {
  // With an absurd jam_shared_max of 0.0 nothing can be "shared".
  auto scenario = simnet::star_hub(4, mbps(100));
  simnet::Network net(scenario.topology);
  MapperOptions options;
  options.jam_shared_max = 0.0;
  options.jam_switched_min = 0.0;  // everything >= 0 becomes switched
  const auto result = map_single_zone(net, scenario, options);
  const auto segments = lan_segments(result.root);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0]->kind, NetKind::switched);
}

TEST(MapperSim, InconclusiveBandIsRespected) {
  // Thresholds arranged so the observed jam ratio (~0.5 on a hub) falls
  // in the inconclusive band.
  auto scenario = simnet::star_hub(4, mbps(100));
  simnet::Network net(scenario.topology);
  MapperOptions options;
  options.jam_shared_max = 0.2;
  options.jam_switched_min = 0.9;
  const auto result = map_single_zone(net, scenario, options);
  const auto segments = lan_segments(result.root);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0]->kind, NetKind::inconclusive);
}

// --- property: ground-truth accuracy over a randomized family ------------

struct AccuracyCase {
  std::uint64_t seed;
};

class RandomLanAccuracy : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomLanAccuracy, DefaultThresholdsClassifyEverySegmentCorrectly) {
  auto scenario = simnet::random_lan(GetParam());
  simnet::Network net(scenario.topology);
  const auto result = map_single_zone(net, scenario);

  const simnet::NodeId master = net.topology().find_by_name(scenario.master).value();
  for (const auto& truth : scenario.ground_truth) {
    if (truth.member_names.size() < 2) continue;
    // Find the segment containing the first member.
    const std::string fqdn = truth.member_names.front() + ".lan";
    const EnvNetwork* segment = result.root.find_containing(fqdn);
    ASSERT_NE(segment, nullptr) << fqdn << " not mapped";
    const NetKind expected = truth.kind == GroundTruthNet::Kind::shared
                                 ? NetKind::shared
                                 : NetKind::switched;
    // Known methodology limitation (the paper's own hub2 case): when the
    // master reaches a shared segment through a bottleneck narrower than
    // ~the medium, the jam flow fits in the residual capacity and the
    // hub masquerades as switched from this viewpoint. The ENS-Lyon run
    // recovers via the second-zone merge; a single-zone map cannot.
    const simnet::NodeId member =
        net.topology().find_by_name(truth.member_names.front()).value();
    const double reachable_bw = net.ground_truth_bandwidth(master, member).value();
    const bool masked = truth.kind == GroundTruthNet::Kind::shared &&
                        reachable_bw < 0.75 * truth.local_bw_bps;
    if (!masked) {
      EXPECT_EQ(segment->kind, expected)
          << "segment of " << fqdn << " misclassified (seed " << GetParam() << ")";
    }
    // Internal (member-to-member) bandwidth is measured inside the
    // segment and stays accurate regardless of the master's viewpoint.
    EXPECT_NEAR(segment->base_local_bw_bps, truth.local_bw_bps, truth.local_bw_bps * 0.06);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLanAccuracy,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace envnws::env
