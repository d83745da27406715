// Tests for the bidirectional-probing extension (paper §4.3 lists
// asymmetric-route detection as future work: "still to do").
#include <gtest/gtest.h>

#include "common/units.hpp"
#include "env/mapper.hpp"
#include "lan_segments.hpp"
#include "env/sim_probe_engine.hpp"
#include "simnet/scenario.hpp"

namespace envnws::env {
namespace {

using units::mbps;

ZoneSpec public_zone(const std::string& master) {
  ZoneSpec spec;
  spec.zone_name = "ens-lyon.fr";
  spec.hostnames = {"the-doors.ens-lyon.fr", "canaria.ens-lyon.fr",
                    "moby.cri2000.ens-lyon.fr", "popc.ens-lyon.fr", "myri.ens-lyon.fr",
                    "sci.ens-lyon.fr"};
  spec.master = master;
  spec.traceroute_target = "edge";
  return spec;
}

TEST(Bidirectional, DetectsTheEnsLyonAsymmetry) {
  simnet::Scenario scenario = simnet::ens_lyon();
  simnet::Network net(simnet::Scenario(scenario).topology);
  MapperOptions options;
  options.bidirectional_probes = true;
  SimProbeEngine engine(net, options);
  Mapper mapper(engine, options);
  auto result = mapper.map_zone(public_zone("the-doors.ens-lyon.fr"));
  ASSERT_TRUE(result.ok());

  const EnvNetwork* hub2 = result.value().root.find_containing("popc.ens-lyon.fr");
  ASSERT_NE(hub2, nullptr);
  // Forward ~10 Mbps, reverse ~100 Mbps: flagged.
  EXPECT_NEAR(hub2->base_bw_bps, mbps(10), mbps(1));
  EXPECT_NEAR(hub2->base_reverse_bw_bps, mbps(100), mbps(5));
  EXPECT_TRUE(hub2->route_asymmetric);

  const EnvNetwork* hub1 = result.value().root.find_containing("canaria.ens-lyon.fr");
  ASSERT_NE(hub1, nullptr);
  // Hub1 is symmetric from the master's viewpoint.
  EXPECT_FALSE(hub1->route_asymmetric);
  EXPECT_NEAR(hub1->base_reverse_bw_bps, hub1->base_bw_bps, mbps(5));
}

TEST(Bidirectional, OffByDefaultAndFieldsStayEmpty) {
  simnet::Scenario scenario = simnet::ens_lyon();
  simnet::Network net(simnet::Scenario(scenario).topology);
  MapperOptions options;
  SimProbeEngine engine(net, options);
  Mapper mapper(engine, options);
  auto result = mapper.map_zone(public_zone("the-doors.ens-lyon.fr"));
  ASSERT_TRUE(result.ok());
  const EnvNetwork* hub2 = result.value().root.find_containing("popc.ens-lyon.fr");
  ASSERT_NE(hub2, nullptr);
  EXPECT_DOUBLE_EQ(hub2->base_reverse_bw_bps, 0.0);
  EXPECT_FALSE(hub2->route_asymmetric);
}

TEST(Bidirectional, DoublesHostBandwidthExperiments) {
  const auto count_for = [](bool bidirectional) {
    simnet::Scenario scenario = simnet::star_switch(5, mbps(100));
    simnet::Network net(simnet::Scenario(scenario).topology);
    MapperOptions options;
    options.bidirectional_probes = bidirectional;
    SimProbeEngine engine(net, options);
    Mapper mapper(engine, options);
    ZoneSpec spec;
    spec.zone_name = "lan";
    spec.hostnames = {"h0.lan", "h1.lan", "h2.lan", "h3.lan", "h4.lan"};
    spec.master = "h0.lan";
    spec.traceroute_target = "h0.lan";
    auto result = mapper.map_zone(spec);
    EXPECT_TRUE(result.ok());
    return result.value().stats.experiments;
  };
  const auto one_way = count_for(false);
  const auto two_way = count_for(true);
  // Phase 2a grows by exactly n-1 = 4 reverse probes.
  EXPECT_EQ(two_way, one_way + 4);
}

TEST(Bidirectional, GridmlRoundTripKeepsAsymmetryAnnotations) {
  EnvNetwork net;
  net.kind = NetKind::shared;
  net.label = "hub";
  net.base_bw_bps = mbps(10);
  net.base_reverse_bw_bps = mbps(100);
  net.route_asymmetric = true;
  net.machines = {"a.lan", "b.lan"};
  const gridml::XmlElement element = net.to_xml();
  const auto property = [&element](const std::string& name) {
    for (const gridml::XmlElement* prop : element.children_named("PROPERTY")) {
      if (prop->attribute("name") == name) return prop->attribute("value");
    }
    return std::string("(absent)");
  };
  EXPECT_EQ(property("ENV_base_reverse_BW"), "100.00");
  EXPECT_EQ(property("ENV_route_asymmetric"), "true");
  const auto rebuilt = EnvNetwork::from_xml(element);
  ASSERT_TRUE(rebuilt.ok());
  const EnvNetwork& back = rebuilt.value();
  EXPECT_TRUE(back.route_asymmetric);
  EXPECT_NEAR(back.base_reverse_bw_bps, mbps(100), 1.0);
  // Rendering mentions the flag.
  EXPECT_NE(render_effective(back).find("ASYMMETRIC"), std::string::npos);
}

TEST(Bidirectional, SymmetricPlatformStaysUnflagged) {
  simnet::Scenario scenario = simnet::star_hub(4, mbps(100));
  simnet::Network net(simnet::Scenario(scenario).topology);
  MapperOptions options;
  options.bidirectional_probes = true;
  SimProbeEngine engine(net, options);
  Mapper mapper(engine, options);
  ZoneSpec spec;
  spec.zone_name = "lan";
  spec.hostnames = {"h0.lan", "h1.lan", "h2.lan", "h3.lan"};
  spec.master = "h0.lan";
  spec.traceroute_target = "h0.lan";
  auto result = mapper.map_zone(spec);
  ASSERT_TRUE(result.ok());
  for (const auto* segment : lan_segments(result.value().root)) {
    EXPECT_FALSE(segment->route_asymmetric);
  }
}

}  // namespace
}  // namespace envnws::env
