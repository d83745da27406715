#include <gtest/gtest.h>

#include "gridml/merge.hpp"
#include "gridml/model.hpp"

namespace envnws::gridml {
namespace {

/// The paper's §4.2.1.1 lookup listing, verbatim shape.
constexpr const char* kPaperLookup = R"(<?xml version="1.0"?>
<GRID>
<SITE domain="ens-lyon.fr">
<LABEL name="ENS-LYON-FR" />
<MACHINE>
<LABEL ip="140.77.13.229" name="canaria.ens-lyon.fr">
<ALIAS name="canaria" />
</LABEL>
</MACHINE>
<MACHINE>
<LABEL ip="140.77.13.82" name="moby.cri2000.ens-lyon.fr">
<ALIAS name="moby" />
</LABEL>
</MACHINE>
</SITE>
</GRID>)";

TEST(GridModel, ParsesPaperLookupListing) {
  const auto doc = GridDoc::parse(kPaperLookup);
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc.value().sites.size(), 1u);
  const Site& site = doc.value().sites.front();
  EXPECT_EQ(site.domain, "ens-lyon.fr");
  EXPECT_EQ(site.label, "ENS-LYON-FR");
  ASSERT_EQ(site.machines.size(), 2u);
  EXPECT_EQ(site.machines[0].name, "canaria.ens-lyon.fr");
  EXPECT_EQ(site.machines[0].ip, "140.77.13.229");
  ASSERT_EQ(site.machines[0].aliases.size(), 1u);
  EXPECT_EQ(site.machines[0].aliases[0], "canaria");
}

TEST(GridModel, ParsesPaperPropertyListing) {
  const auto doc = GridDoc::parse(R"(<GRID><SITE domain="ens-lyon.fr"><MACHINE>
<LABEL ip="140.77.13.92" name="pikaki.cri2000.ens-lyon.fr">
<ALIAS name="pikaki" />
</LABEL>
<PROPERTY name="CPU_clock" value="198.951" units="MHz" />
<PROPERTY name="CPU_model" value="Pentium Pro" />
<PROPERTY name="kflops" value="17607" />
</MACHINE></SITE></GRID>)");
  ASSERT_TRUE(doc.ok());
  const Machine& machine = doc.value().sites.front().machines.front();
  ASSERT_EQ(machine.properties.size(), 3u);
  EXPECT_EQ(machine.properties[0].units, "MHz");
  EXPECT_EQ(machine.properties[1].name, "CPU_model");
  EXPECT_EQ(machine.properties[1].value, "Pentium Pro");
  EXPECT_EQ(machine.properties[2].name, "kflops");
  EXPECT_EQ(machine.properties[2].value, "17607");
}

TEST(GridModel, RoundTripSerialization) {
  const auto doc = GridDoc::parse(kPaperLookup);
  ASSERT_TRUE(doc.ok());
  const auto again = GridDoc::parse(doc.value().to_string());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().to_string(), doc.value().to_string());
}

TEST(GridModel, FindMachineByNameOrAlias) {
  const auto doc = GridDoc::parse(kPaperLookup);
  ASSERT_TRUE(doc.ok());
  EXPECT_NE(doc.value().find_machine("canaria.ens-lyon.fr"), nullptr);
  EXPECT_NE(doc.value().find_machine("canaria"), nullptr);
  EXPECT_EQ(doc.value().find_machine("unknown"), nullptr);
}

// --- merge (paper §4.3 "Firewalls") --------------------------------------

GridDoc public_side() {
  GridDoc doc;
  Site site;
  site.domain = "ens-lyon.fr";
  site.label = "ENS-LYON-FR";
  Machine myri;
  myri.name = "myri.ens-lyon.fr";
  myri.ip = "140.77.12.52";
  myri.aliases = {"myri"};
  site.machines.push_back(myri);
  doc.sites.push_back(site);
  return doc;
}

GridDoc private_side() {
  GridDoc doc;
  Site site;
  site.domain = "popc.private";
  site.label = "POPC-PRIVATE";
  Machine myri0;
  myri0.name = "myri0.popc.private";
  myri0.ip = "192.168.81.50";
  myri0.aliases = {"myri0"};
  site.machines.push_back(myri0);
  Machine sci1;
  sci1.name = "sci1.popc.private";
  sci1.ip = "192.168.81.11";
  site.machines.push_back(sci1);
  doc.sites.push_back(site);
  return doc;
}

TEST(GridMerge, PaperGatewayMergeCrossAliases) {
  const auto merged =
      merge({public_side(), private_side()}, {{"myri.ens-lyon.fr", "myri0.popc.private"}});
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged.value().sites.size(), 2u);
  // Looking the gateway up under either name finds a record carrying the
  // other name as alias — exactly the paper's merged listing.
  const Machine* via_public = merged.value().find_machine("myri.ens-lyon.fr");
  ASSERT_NE(via_public, nullptr);
  EXPECT_TRUE(via_public->answers_to("myri0.popc.private"));
  const Machine* via_private = merged.value().find_machine("myri0.popc.private");
  ASSERT_NE(via_private, nullptr);
  EXPECT_TRUE(via_private->answers_to("myri.ens-lyon.fr"));
  // Non-gateway machines untouched.
  const Machine* sci1 = merged.value().find_machine("sci1.popc.private");
  ASSERT_NE(sci1, nullptr);
  EXPECT_EQ(sci1->aliases.size(), 0u);
}

TEST(GridMerge, MergedLabel) {
  const auto merged = merge({public_side()}, {}, "Grid1");
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged.value().label, "Grid1");
}

TEST(GridMerge, RejectsSingletonAliasGroup) {
  EXPECT_FALSE(merge({public_side()}, {{"myri.ens-lyon.fr"}}).ok());
}

TEST(GridMerge, RejectsUnknownGateway) {
  EXPECT_FALSE(merge({public_side()}, {{"ghost.a", "ghost.b"}}).ok());
}

}  // namespace
}  // namespace envnws::gridml
