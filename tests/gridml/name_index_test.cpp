// GridDoc::name_index() against the linear lookup it replaces: on every
// name it must give find_machine's first-wins answer (site order, then
// machine order).
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "gridml/model.hpp"

namespace envnws::gridml {
namespace {

/// The linear scan GridDoc::find_machine does, kept here as the oracle.
const Machine* linear_find(const GridDoc& doc, const std::string& name) {
  for (const auto& site : doc.sites) {
    for (const auto& machine : site.machines) {
      if (machine.name == name) return &machine;
      for (const auto& alias : machine.aliases) {
        if (alias == name) return &machine;
      }
    }
  }
  return nullptr;
}

/// Names drawn from a small pool, so that names repeat across machines
/// and sites and aliases collide with other machines' names.
std::string pool_name(Rng& rng) { return "m" + std::to_string(rng.next_below(40)) + ".lan"; }

GridDoc random_doc(Rng& rng) {
  GridDoc doc;
  const std::size_t sites = 1 + rng.next_below(4);
  for (std::size_t s = 0; s < sites; ++s) {
    Site site;
    site.domain = "site" + std::to_string(s);
    const std::size_t machines = rng.next_below(12);
    for (std::size_t m = 0; m < machines; ++m) {
      Machine machine;
      machine.name = pool_name(rng);
      const std::size_t aliases = rng.next_below(3);
      for (std::size_t a = 0; a < aliases; ++a) machine.aliases.push_back(pool_name(rng));
      site.machines.push_back(std::move(machine));
    }
    doc.sites.push_back(std::move(site));
  }
  return doc;
}

/// Every pool name plus names no machine carries.
std::vector<std::string> probe_names() {
  std::vector<std::string> names;
  for (int i = 0; i < 40; ++i) names.push_back("m" + std::to_string(i) + ".lan");
  names.push_back("unknown.lan");
  names.push_back("");
  return names;
}

void expect_index_matches_scan(const GridDoc& doc) {
  const NameIndex index = doc.name_index();
  for (const auto& name : probe_names()) {
    EXPECT_EQ(index.find(name), linear_find(doc, name)) << name;
  }
}

TEST(NameIndex, AnswersLikeTheLinearScanOnSeededDocuments) {
  Rng rng(2023);
  for (int round = 0; round < 200; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    expect_index_matches_scan(random_doc(rng));
  }
}

TEST(NameIndex, AnAliasShadowsALaterMachinesName) {
  GridDoc doc;
  Site site;
  site.domain = "lan";
  Machine first;
  first.name = "a.lan";
  first.aliases = {"b.lan"};
  Machine second;
  second.name = "b.lan";
  site.machines = {first, second};
  doc.sites.push_back(site);
  const NameIndex index = doc.name_index();
  ASSERT_NE(index.find("b.lan"), nullptr);
  EXPECT_EQ(index.find("b.lan")->name, "a.lan");
  expect_index_matches_scan(doc);
}

TEST(NameIndex, ADuplicateNameResolvesToTheFirstSite) {
  GridDoc doc;
  for (const char* domain : {"one", "two"}) {
    Site site;
    site.domain = domain;
    Machine machine;
    machine.name = "gw.lan";
    machine.ip = domain;
    site.machines.push_back(machine);
    doc.sites.push_back(site);
  }
  const NameIndex index = doc.name_index();
  ASSERT_NE(index.find("gw.lan"), nullptr);
  EXPECT_EQ(index.find("gw.lan")->ip, "one");
  EXPECT_EQ(index.find("nobody.lan"), nullptr);
  expect_index_matches_scan(doc);
}

}  // namespace
}  // namespace envnws::gridml
