#include "gridml/xml.hpp"

#include <gtest/gtest.h>

namespace envnws::gridml {
namespace {

TEST(Xml, BuildAndSerialize) {
  XmlElement root("GRID");
  XmlElement site("SITE");
  site.set_attribute("domain", "ens-lyon.fr");
  root.add_child(std::move(site));
  const std::string text = to_document_string(root);
  EXPECT_NE(text.find("<?xml version=\"1.0\"?>"), std::string::npos);
  EXPECT_NE(text.find("<GRID>"), std::string::npos);
  EXPECT_NE(text.find("<SITE domain=\"ens-lyon.fr\" />"), std::string::npos);
}

TEST(Xml, ParseSimpleDocument) {
  const auto root = parse_xml(R"(<?xml version="1.0"?>
<GRID>
  <SITE domain="ens-lyon.fr">
    <MACHINE><LABEL ip="140.77.13.229" name="canaria.ens-lyon.fr" /></MACHINE>
  </SITE>
</GRID>)");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root.value().name(), "GRID");
  const XmlElement* site = root.value().first_child("SITE");
  ASSERT_NE(site, nullptr);
  EXPECT_EQ(site->attribute("domain"), "ens-lyon.fr");
  const XmlElement* machine = site->first_child("MACHINE");
  ASSERT_NE(machine, nullptr);
  EXPECT_EQ(machine->first_child("LABEL")->attribute("name"), "canaria.ens-lyon.fr");
}

TEST(Xml, RoundTripPreservesStructure) {
  XmlElement root("A");
  XmlElement b("B");
  b.set_attribute("x", "1");
  b.add_child(XmlElement("C"));
  root.add_child(std::move(b));
  root.add_child(XmlElement("B"));
  const auto reparsed = parse_xml(root.to_string());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.value().to_string(), root.to_string());
}

TEST(Xml, EscapesAttributeValues) {
  XmlElement root("X");
  root.set_attribute("v", R"(a<b&"c'>)");
  const auto reparsed = parse_xml(root.to_string());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.value().attribute("v"), R"(a<b&"c'>)");
}

TEST(Xml, CommentsAndDoctypeTolerated) {
  const auto root = parse_xml(R"(<?xml version="1.0"?>
<!DOCTYPE GRID SYSTEM "gridml.dtd">
<!-- header comment -->
<GRID>
  <!-- inner comment -->
  <SITE domain="x" />
</GRID>
<!-- trailing comment -->)");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root.value().children().size(), 1u);
}

TEST(Xml, SingleQuotedAttributes) {
  const auto root = parse_xml("<A v='hello' />");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root.value().attribute("v"), "hello");
}

TEST(Xml, ErrorsAreReported) {
  EXPECT_FALSE(parse_xml("").ok());
  EXPECT_FALSE(parse_xml("<A><B></A>").ok());      // mismatched end tag
  EXPECT_FALSE(parse_xml("<A>").ok());             // missing end tag
  EXPECT_FALSE(parse_xml("<A v=1 />").ok());       // unquoted attribute
  EXPECT_FALSE(parse_xml("<A v=\"&bogus;\"/>").ok());  // unknown entity
  EXPECT_FALSE(parse_xml("<A /><B />").ok());      // two roots
}

TEST(Xml, AttributeUpdateKeepsOrder) {
  XmlElement el("E");
  el.set_attribute("a", "1");
  el.set_attribute("b", "2");
  el.set_attribute("a", "3");
  ASSERT_EQ(el.attributes().size(), 2u);
  EXPECT_EQ(el.attributes()[0].first, "a");
  EXPECT_EQ(el.attributes()[0].second, "3");
  EXPECT_EQ(el.attributes()[1].first, "b");
  EXPECT_EQ(el.attribute("missing", "dflt"), "dflt");
}

TEST(Xml, ChildrenNamedFiltersCorrectly) {
  XmlElement root("R");
  root.add_child(XmlElement("A"));
  root.add_child(XmlElement("B"));
  root.add_child(XmlElement("A"));
  EXPECT_EQ(root.children_named("A").size(), 2u);
  EXPECT_EQ(root.children_named("B").size(), 1u);
  EXPECT_EQ(root.children_named("C").size(), 0u);
}

}  // namespace
}  // namespace envnws::gridml
