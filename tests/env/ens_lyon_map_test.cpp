// Full ENS-Lyon mapping: reproduces paper Figures 1(b) and 2 and the
// firewall merge of §4.3.
#include <algorithm>
#include <gtest/gtest.h>

#include "common/units.hpp"
#include "env/mapper.hpp"
#include "env/scenario_zones.hpp"
#include "env/sim_probe_engine.hpp"
#include "simnet/scenario.hpp"

namespace envnws::env {
namespace {

using units::mbps;

class EnsLyonMap : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scenario_ = new simnet::Scenario(simnet::ens_lyon());
    net_ = new simnet::Network(simnet::Scenario(*scenario_).topology);
    MapperOptions options;
    SimProbeEngine engine(*net_, options);
    Mapper mapper(engine, options);
    auto result =
        mapper.map(zones_from_scenario(*scenario_).value(),
                   gateway_aliases_from_scenario(*scenario_));
    ASSERT_TRUE(result.ok()) << result.error().to_string();
    map_ = new MapResult(std::move(result.value()));
  }
  static void TearDownTestSuite() {
    delete map_;
    map_ = nullptr;
    delete net_;
    net_ = nullptr;
    delete scenario_;
    scenario_ = nullptr;
  }

  static simnet::Scenario* scenario_;
  static simnet::Network* net_;
  static MapResult* map_;
};

simnet::Scenario* EnsLyonMap::scenario_ = nullptr;
simnet::Network* EnsLyonMap::net_ = nullptr;
MapResult* EnsLyonMap::map_ = nullptr;

const EnvNetwork* segment_of(const MapResult& map, const std::string& machine) {
  return map.root.find_containing(machine);
}

TEST_F(EnsLyonMap, TwoZonesWereMapped) {
  ASSERT_EQ(map_->zones.size(), 2u);
  EXPECT_EQ(map_->zones[0].spec.zone_name, "ens-lyon.fr");
  EXPECT_EQ(map_->zones[1].spec.zone_name, "popc.private");
  EXPECT_EQ(map_->master_fqdn, "the-doors.ens-lyon.fr");
}

TEST_F(EnsLyonMap, Figure2StructuralTree) {
  const StructuralNode& root = map_->zones.front().structural;
  EXPECT_EQ(root.ip, "192.168.254.1");  // non-routable root kept (§4.3)
  ASSERT_EQ(root.children.size(), 2u);
  // Branch 1: 140.77.13.1 with the three public machines.
  EXPECT_EQ(root.children[0].ip, "140.77.13.1");
  EXPECT_EQ(root.children[0].machines.size(), 3u);
  // Branch 2: routeur-backbone -> routlhpc -> {myri, popc, sci}.
  EXPECT_EQ(root.children[1].name, "routeur-backbone.ens-lyon.fr");
  ASSERT_EQ(root.children[1].children.size(), 1u);
  EXPECT_EQ(root.children[1].children[0].name, "routlhpc.ens-lyon.fr");
  EXPECT_EQ(root.children[1].children[0].machines.size(), 3u);
}

TEST_F(EnsLyonMap, Figure1bHub1) {
  const EnvNetwork* hub1 = segment_of(*map_, "canaria.ens-lyon.fr");
  ASSERT_NE(hub1, nullptr);
  EXPECT_EQ(hub1->kind, NetKind::shared);
  EXPECT_EQ(hub1->machines.size(), 3u);  // the-doors, canaria, moby
  EXPECT_TRUE(std::find(hub1->machines.begin(), hub1->machines.end(),
                        "the-doors.ens-lyon.fr") != hub1->machines.end());
  EXPECT_NEAR(hub1->base_bw_bps, mbps(100), mbps(3));
}

TEST_F(EnsLyonMap, Figure1bHub2BehindBottleneck) {
  const EnvNetwork* hub2 = segment_of(*map_, "popc.ens-lyon.fr");
  ASSERT_NE(hub2, nullptr);
  // "popc0, myri0 and sci0 are on a 100 Mbps hub, whereas links to reach
  // popc0 and myri0 from the-doors must go through a bottleneck at
  // 10 Mbps": shared verdict (from the private-side view), base_bw from
  // the master's viewpoint ~10, local ~100.
  EXPECT_EQ(hub2->kind, NetKind::shared);
  EXPECT_EQ(hub2->machines.size(), 3u);
  EXPECT_NEAR(hub2->base_bw_bps, mbps(10), mbps(1));
  EXPECT_NEAR(hub2->base_local_bw_bps, mbps(100), mbps(3));
}

TEST_F(EnsLyonMap, Figure1bMyriHubShared) {
  const EnvNetwork* hub3 = segment_of(*map_, "myri1.popc.private");
  ASSERT_NE(hub3, nullptr);
  EXPECT_EQ(hub3->kind, NetKind::shared);
  EXPECT_EQ(hub3->machines.size(), 2u);
  EXPECT_EQ(hub3->gateway, "myri.ens-lyon.fr");  // canonicalized
}

TEST_F(EnsLyonMap, Figure1bSciClusterSwitched) {
  const EnvNetwork* sci = segment_of(*map_, "sci3.popc.private");
  ASSERT_NE(sci, nullptr);
  // The paper's GridML: ENV_Switched, base 32.65 Mbps, local 32.29 Mbps.
  EXPECT_EQ(sci->kind, NetKind::switched);
  EXPECT_EQ(sci->machines.size(), 6u);
  EXPECT_NEAR(sci->base_bw_bps, mbps(33), mbps(1.5));
  EXPECT_NEAR(sci->base_local_bw_bps, mbps(33), mbps(1.5));
  EXPECT_EQ(sci->gateway, "sci.ens-lyon.fr");
}

TEST_F(EnsLyonMap, NestingFollowsGateways) {
  // hub3 and the sci switch hang under hub2 in the merged view.
  const EnvNetwork* hub2 = segment_of(*map_, "popc.ens-lyon.fr");
  ASSERT_NE(hub2, nullptr);
  ASSERT_EQ(hub2->children.size(), 2u);
  std::vector<NetKind> kinds{hub2->children[0].kind, hub2->children[1].kind};
  EXPECT_TRUE(std::find(kinds.begin(), kinds.end(), NetKind::shared) != kinds.end());
  EXPECT_TRUE(std::find(kinds.begin(), kinds.end(), NetKind::switched) != kinds.end());
}

TEST_F(EnsLyonMap, MergedGridCarriesBothSitesAndGatewayAliases) {
  const auto& grid = map_->grid;
  // ens-lyon.fr (+ cri2000.ens-lyon.fr is folded to 2 labels) and
  // popc.private sites present.
  EXPECT_GE(grid.sites.size(), 2u);
  const gridml::Machine* gateway = grid.find_machine("popc0.popc.private");
  ASSERT_NE(gateway, nullptr);
  EXPECT_TRUE(gateway->answers_to("popc.ens-lyon.fr"));
  // Host inventory propagated.
  const gridml::Machine* moby = grid.find_machine("moby.cri2000.ens-lyon.fr");
  ASSERT_NE(moby, nullptr);
  const auto model =
      std::find_if(moby->properties.begin(), moby->properties.end(),
                   [](const gridml::Property& property) { return property.name == "CPU_model"; });
  ASSERT_NE(model, moby->properties.end());
  EXPECT_EQ(model->value, "Pentium Pro");
}

TEST_F(EnsLyonMap, GridmlSerializationRoundTrips) {
  const std::string xml = map_->grid.to_string();
  EXPECT_NE(xml.find("ENV_Switched"), std::string::npos);
  EXPECT_NE(xml.find("ENV_Shared"), std::string::npos);
  const auto reparsed = gridml::GridDoc::parse(xml);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.value().to_string(), xml);
  // The effective tree survives the round trip.
  const auto rebuilt = published_view(reparsed.value());
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(rebuilt.value().all_machines().size(), map_->root.all_machines().size());
}

TEST_F(EnsLyonMap, MappingTakesMinutesNotDays) {
  // "the mapping of our platform only last a few minutes"
  EXPECT_LT(map_->stats.duration_s, 15.0 * 60.0);
  EXPECT_GT(map_->stats.duration_s, 10.0);
  EXPECT_LT(map_->stats.experiments, 200u);
}

TEST_F(EnsLyonMap, RenderMentionsAllSegments) {
  const std::string out = render_effective(map_->root);
  EXPECT_NE(out.find("shared"), std::string::npos);
  EXPECT_NE(out.find("switched"), std::string::npos);
  EXPECT_NE(out.find("sci1.popc.private"), std::string::npos);
}

TEST_F(EnsLyonMap, AsymmetryLimitationReproduced) {
  // §4.3: "Since ENV bandwidth tests are conducted in only one way, the
  // system cannot detect such problems": the effective view records the
  // forward (10 Mbps) direction only; nothing in the tree reflects the
  // 100 Mbps return path.
  const EnvNetwork* hub2 = segment_of(*map_, "popc.ens-lyon.fr");
  ASSERT_NE(hub2, nullptr);
  EXPECT_LT(hub2->base_bw_bps, mbps(15));  // return-direction 100 invisible
}

}  // namespace
}  // namespace envnws::env
