// The effective view: its rendering (the literal expectation pins the
// byte format every identity digest and golden comparison is built on)
// and its GridML NETWORK reader and writer.
#include <gtest/gtest.h>

#include <string>

#include "common/units.hpp"
#include "env/env_tree.hpp"
#include "gridml/model.hpp"

namespace envnws::env {
namespace {

/// A tree exercising every rendered field: nested structure, every
/// NetKind, machines, gateways, reverse bandwidth and the asymmetry flag.
EnvNetwork sample_tree() {
  EnvNetwork root;
  root.kind = NetKind::structural;
  root.label = "edge.example.org";
  root.label_ip = "192.0.2.1";

  EnvNetwork lan;
  lan.kind = NetKind::switched;
  lan.label = "lan0";
  lan.base_bw_bps = units::mbps(100);
  lan.base_local_bw_bps = units::mbps(94.5);
  lan.machines = {"a.example.org", "b.example.org"};

  EnvNetwork hub;
  hub.kind = NetKind::shared;
  hub.label = "hub0";
  hub.base_bw_bps = units::mbps(10);
  hub.gateway = "gw.example.org";
  hub.machines = {"gw.example.org", "c.example.org"};

  EnvNetwork weird;
  weird.kind = NetKind::inconclusive;
  weird.label = "dmz";
  weird.base_bw_bps = units::mbps(42);
  weird.base_reverse_bw_bps = units::mbps(7);
  weird.route_asymmetric = true;
  weird.machines = {"d.example.org"};
  hub.children.push_back(weird);

  root.children.push_back(lan);
  root.children.push_back(hub);
  return root;
}

TEST(EnvTree, RenderMatchesTheCommittedFormat) {
  EXPECT_EQ(render_effective(sample_tree()),
            "* edge.example.org [192.0.2.1]\n"
            "  + lan0 <switched> base=100.00Mbps local=94.50Mbps\n"
            "      machines: a.example.org, b.example.org\n"
            "  + hub0 <shared> base=10.00Mbps via gw.example.org\n"
            "      machines: gw.example.org, c.example.org\n"
            "    + dmz <inconclusive> base=42.00Mbps reverse=7.00Mbps [ASYMMETRIC ROUTE]\n"
            "        machines: d.example.org\n");
}

// --- GridML NETWORK elements (paper §4) -----------------------------------

Result<EnvNetwork> view_of(const std::string& gridml_text) {
  const auto doc = gridml::GridDoc::parse(gridml_text);
  if (!doc.ok()) return doc.error();
  return published_view(doc.value());
}

TEST(EnvTree, ParsesPaperSwitchedNetworkListing) {
  const auto doc = gridml::GridDoc::parse(R"(<GRID>
<NETWORK type="ENV_Switched">
<LABEL name="sci0" />
<PROPERTY name="ENV_base_BW" value="32.65" units="Mbps" />
<PROPERTY name="ENV_base_local_BW" value="32.29" units="Mbps" />
<MACHINE name="sci1.popc.private" />
<MACHINE name="sci2.popc.private" />
</NETWORK>
</GRID>)");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc.value().networks.size(), 1u);
  const auto parsed = EnvNetwork::from_xml(doc.value().networks.front());
  ASSERT_TRUE(parsed.ok());
  const EnvNetwork& net = parsed.value();
  EXPECT_EQ(net.kind, NetKind::switched);
  EXPECT_EQ(net.label, "sci0");
  EXPECT_DOUBLE_EQ(net.base_bw_bps, units::mbps(32.65));
  ASSERT_EQ(net.machines.size(), 2u);
  EXPECT_EQ(net.machines[0], "sci1.popc.private");
}

TEST(EnvTree, NestedStructuralNetworks) {
  const auto parsed = view_of(R"(<GRID>
<NETWORK type="Structural">
<LABEL ip="192.168.254.1" name="192.168.254.1" />
<NETWORK type="Structural">
<LABEL ip="140.77.13.1" name="140.77.13.1" />
<MACHINE name="canaria.ens-lyon.fr" />
</NETWORK>
</NETWORK>
</GRID>)");
  ASSERT_TRUE(parsed.ok());
  const EnvNetwork& root = parsed.value();
  ASSERT_EQ(root.children.size(), 1u);
  EXPECT_EQ(root.children[0].label_ip, "140.77.13.1");
  const auto all = root.all_machines();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0], "canaria.ens-lyon.fr");
}

TEST(EnvTree, UnknownNetworkTypeIsError) {
  const auto parsed = view_of(R"(<GRID><NETWORK type="Bogus" /></GRID>)");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, ErrorCode::protocol);
}

TEST(EnvTree, MalformedNetworkAnywhereInTheDocumentIsError) {
  // published_view reads the last NETWORK, but an earlier malformed one
  // still fails the document.
  const auto parsed = view_of(R"(<GRID><NETWORK type="Bogus" />
<NETWORK type="ENV_Shared"><MACHINE name="a.lan" /></NETWORK></GRID>)");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, ErrorCode::protocol);
  const auto no_view = view_of("<GRID />");
  ASSERT_FALSE(no_view.ok());
  EXPECT_EQ(no_view.error().code, ErrorCode::invalid_argument);
}

TEST(EnvTree, ReaderKeepsTheFirstPropertyAndLabelledMachines) {
  const auto parsed = view_of(R"(<GRID><NETWORK>
<PROPERTY name="ENV_base_BW" value="10" units="Mbps" />
<PROPERTY name="ENV_base_BW" value="99" units="Mbps" />
<MACHINE><LABEL name="a.lan" /></MACHINE>
<MACHINE name="b.lan" />
</NETWORK></GRID>)");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().kind, NetKind::structural);  // empty type
  EXPECT_DOUBLE_EQ(parsed.value().base_bw_bps, units::mbps(10));
  EXPECT_EQ(parsed.value().machines, (std::vector<std::string>{"a.lan", "b.lan"}));
}

TEST(EnvTree, NonNumericBandwidthIsAProtocolErrorNamingTheNetwork) {
  const auto parsed = view_of(R"(<GRID><NETWORK type="ENV_Shared"><LABEL name="hub7" />
<PROPERTY name="ENV_base_local_BW" value="fast" units="Mbps" /></NETWORK></GRID>)");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, ErrorCode::protocol);
  EXPECT_NE(parsed.error().message.find("hub7"), std::string::npos) << parsed.error().message;
}

TEST(EnvTree, RouteAsymmetricReadsTrueAndFalseAndRejectsAnythingElse) {
  struct Row {
    std::string value;
    bool ok;
    bool asymmetric;
  };
  for (const Row& row : {Row{"true", true, true}, Row{"false", true, false},
                         Row{"yes", false, false}}) {
    SCOPED_TRACE("ENV_route_asymmetric=" + row.value);
    const auto parsed = view_of(
        R"(<GRID><NETWORK type="ENV_Shared"><LABEL name="hub" />
<PROPERTY name="ENV_route_asymmetric" value=")" +
        row.value + R"(" /><MACHINE name="a.lan" /></NETWORK></GRID>)");
    ASSERT_EQ(parsed.ok(), row.ok);
    if (!row.ok) {
      EXPECT_EQ(parsed.error().code, ErrorCode::protocol);
      continue;
    }
    EXPECT_EQ(parsed.value().route_asymmetric, row.asymmetric);
    EXPECT_EQ(render_effective(parsed.value()).find("ASYMMETRIC") != std::string::npos,
              row.asymmetric);
  }
}

TEST(EnvTree, XmlRoundTripKeepsEveryRenderedField) {
  const EnvNetwork tree = sample_tree();
  const gridml::XmlElement element = tree.to_xml();
  const auto rebuilt = EnvNetwork::from_xml(element);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(render_effective(rebuilt.value()), render_effective(tree));
  EXPECT_EQ(rebuilt.value().to_xml().to_string(), element.to_string());
}

}  // namespace
}  // namespace envnws::env
