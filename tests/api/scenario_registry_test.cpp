// The named scenario registry: spec parsing round-trips, builtin
// resolution of every registered family, and loud failure on typos.
#include <gtest/gtest.h>

#include "api/scenario_registry.hpp"
#include "common/units.hpp"

namespace envnws::api {
namespace {

using units::mbps;

const ScenarioRegistry& reg() { return ScenarioRegistry::builtin(); }

std::size_t host_count(const simnet::Scenario& scenario) {
  return scenario.topology.hosts().size();
}

TEST(ScenarioSpec, ParsesFullForm) {
  auto spec = ScenarioSpec::parse("dumbbell:3x4@100/10");
  ASSERT_TRUE(spec.ok()) << spec.error().to_string();
  EXPECT_EQ(spec.value().name, "dumbbell");
  EXPECT_EQ(spec.value().dims, (std::vector<int>{3, 4}));
  EXPECT_EQ(spec.value().rates_mbps, (std::vector<double>{100.0, 10.0}));
}

TEST(ScenarioSpec, ParsesNameOnlyAndPartialForms) {
  EXPECT_TRUE(ScenarioSpec::parse("ens-lyon").ok());
  // Every dimension, rate and percentage piece is trimmed.
  EXPECT_TRUE(ScenarioSpec::parse("dumbbell:3x3@ 100").ok());
  EXPECT_TRUE(ScenarioSpec::parse("dumbbell: 3x 3@100/ 10").ok());
  EXPECT_TRUE(ScenarioSpec::parse("lossy:p= 1%:star:6").ok());
  auto dims_only = ScenarioSpec::parse("star:8");
  ASSERT_TRUE(dims_only.ok());
  EXPECT_TRUE(dims_only.value().rates_mbps.empty());
  auto rates_only = ScenarioSpec::parse("star@33");
  ASSERT_TRUE(rates_only.ok());
  EXPECT_TRUE(rates_only.value().dims.empty());
  EXPECT_EQ(rates_only.value().rates_mbps, (std::vector<double>{33.0}));
}

TEST(ScenarioSpec, RoundTripsThroughToString) {
  for (const char* text : {"ens-lyon", "star:8@100", "dumbbell:3x3@100/10",
                           "constellation:4x5@100/10", "vlan:4x2@100", "random-lan:7",
                           "two-cluster:4@100/1.5"}) {
    auto spec = ScenarioSpec::parse(text);
    ASSERT_TRUE(spec.ok()) << text;
    EXPECT_EQ(spec.value().to_string(), text);
    auto again = ScenarioSpec::parse(spec.value().to_string());
    ASSERT_TRUE(again.ok()) << text;
    EXPECT_EQ(again.value().to_string(), spec.value().to_string());
  }
}

TEST(ScenarioSpec, RejectsMalformedSpecs) {
  for (const char* text : {"", "  ", ":3x3", "star:", "star:x", "star:3x", "star@",
                           "star@fast", "star@-10", "star@0", "dumbbell:axb",
                           "dumbbell:3.5", "star@nan", "star@inf", "star@-inf",
                           "lossy:p=inf%:star:6"}) {
    auto spec = ScenarioSpec::parse(text);
    EXPECT_FALSE(spec.ok()) << "'" << text << "' should not parse";
    if (!spec.ok()) EXPECT_EQ(spec.error().code, ErrorCode::invalid_argument) << text;
  }
}

TEST(ScenarioRegistry, UnknownNameIsNamedError) {
  auto made = reg().make("dumbell:3x3");  // the classic typo
  ASSERT_FALSE(made.ok());
  EXPECT_EQ(made.error().code, ErrorCode::not_found);
  EXPECT_NE(made.error().message.find("dumbell"), std::string::npos);
  EXPECT_NE(made.error().message.find("dumbbell"), std::string::npos)
      << "error should list the known names: " << made.error().message;
}

TEST(ScenarioRegistry, ResolvesEnsLyon) {
  auto made = reg().make("ens-lyon");
  ASSERT_TRUE(made.ok()) << made.error().to_string();
  EXPECT_EQ(made.value().name, "ens-lyon");
  EXPECT_EQ(made.value().master, "the-doors");
  EXPECT_EQ(host_count(made.value()), 14u);  // 3 public + 3 gateways + myri1/2 + sci1..6
}

TEST(ScenarioRegistry, ResolvesStarFamilies) {
  auto hub = reg().make("star:8@100");
  ASSERT_TRUE(hub.ok());
  EXPECT_EQ(host_count(hub.value()), 8u);
  ASSERT_EQ(hub.value().ground_truth.size(), 1u);
  EXPECT_EQ(hub.value().ground_truth[0].kind, simnet::GroundTruthNet::Kind::shared);
  EXPECT_DOUBLE_EQ(hub.value().ground_truth[0].local_bw_bps, mbps(100));

  auto sw = reg().make("star-switch:6@33");
  ASSERT_TRUE(sw.ok());
  EXPECT_EQ(host_count(sw.value()), 6u);
  EXPECT_EQ(sw.value().ground_truth[0].kind, simnet::GroundTruthNet::Kind::switched);
  EXPECT_DOUBLE_EQ(sw.value().ground_truth[0].local_bw_bps, mbps(33));
}

TEST(ScenarioRegistry, ResolvesDumbbell) {
  auto made = reg().make("dumbbell:3x3@100/10");
  ASSERT_TRUE(made.ok());
  EXPECT_EQ(host_count(made.value()), 6u);
  // Defaults produce the same platform as the explicit spec.
  auto defaulted = reg().make("dumbbell");
  ASSERT_TRUE(defaulted.ok());
  EXPECT_EQ(host_count(defaulted.value()), host_count(made.value()));
}

TEST(ScenarioRegistry, ResolvesConstellation) {
  auto made = reg().make("constellation:3x4@100/10");
  ASSERT_TRUE(made.ok());
  EXPECT_EQ(host_count(made.value()), 12u);
  EXPECT_EQ(made.value().ground_truth.size(), 3u);
}

TEST(ScenarioRegistry, ResolvesVlanLab) {
  auto made = reg().make("vlan:3x2@100");
  ASSERT_TRUE(made.ok());
  EXPECT_EQ(host_count(made.value()), 6u);
  EXPECT_EQ(made.value().ground_truth.size(), 2u);
}

TEST(ScenarioRegistry, ResolvesTwoClusterAndRandomLan) {
  auto two = reg().make("two-cluster:4@100/50");
  ASSERT_TRUE(two.ok());
  EXPECT_EQ(host_count(two.value()), 9u);  // master + 2x4

  auto random = reg().make("random-lan:7");
  ASSERT_TRUE(random.ok());
  EXPECT_GE(host_count(random.value()), 2u);
  EXPECT_FALSE(random.value().ground_truth.empty());
  // Same seed, same platform.
  auto replay = reg().make("random-lan:7");
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(host_count(replay.value()), host_count(random.value()));
}

TEST(ScenarioRegistry, ResolvesMultiFirewall) {
  auto made = reg().make("multi-firewall:4x5@100/100");
  ASSERT_TRUE(made.ok()) << made.error().to_string();
  EXPECT_EQ(made.value().name, "multi-firewall:4x5@100/100");
  EXPECT_EQ(host_count(made.value()), 1u + 4u + 4u * 5u);  // master + gateways + hosts
  // One firewall zone per private domain plus the public one.
  EXPECT_EQ(made.value().topology.zones().size(), 5u);
  EXPECT_EQ(made.value().master, "master");
  // Hard caps fail loudly instead of overflowing addresses.
  EXPECT_FALSE(reg().make("multi-firewall:100x3").ok());
  EXPECT_FALSE(reg().make("multi-firewall:2x300").ok());
}

TEST(ScenarioRegistry, ResolvesFatTree) {
  auto made = reg().make("fat-tree:4@100");
  ASSERT_TRUE(made.ok()) << made.error().to_string();
  EXPECT_EQ(host_count(made.value()), 16u);  // k^3/4
  EXPECT_EQ(made.value().ground_truth.size(), 8u);  // k*(k/2) edge segments
  auto defaulted = reg().make("fat-tree");
  ASSERT_TRUE(defaulted.ok());
  EXPECT_EQ(host_count(defaulted.value()), 16u);
  // K must be even and bounded.
  EXPECT_FALSE(reg().make("fat-tree:3").ok());
  EXPECT_FALSE(reg().make("fat-tree:12").ok());
}

TEST(ScenarioRegistry, ResolvesTorus) {
  auto made = reg().make("torus:3x2x2@100");
  ASSERT_TRUE(made.ok()) << made.error().to_string();
  EXPECT_EQ(host_count(made.value()), 12u);
  auto bare = reg().make("torus");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(host_count(bare.value()), 8u);  // 2x2x2
  auto ring = reg().make("torus:6");
  ASSERT_TRUE(ring.ok());
  EXPECT_EQ(host_count(ring.value()), 6u);  // trailing dims default to 1
  EXPECT_FALSE(reg().make("torus:5x5x5").ok());  // > 64 nodes
}

TEST(ScenarioRegistry, RandomLanAcceptsSegmentSpeedOverrides) {
  auto single_speed = reg().make("random-lan:11@100");
  ASSERT_TRUE(single_speed.ok()) << single_speed.error().to_string();
  for (const auto& truth : single_speed.value().ground_truth) {
    EXPECT_DOUBLE_EQ(truth.local_bw_bps, mbps(100));
  }
  // Same seed, same layout, regardless of the speed palette.
  auto multi_speed = reg().make("random-lan:11@10/33/100");
  ASSERT_TRUE(multi_speed.ok());
  EXPECT_EQ(host_count(multi_speed.value()), host_count(single_speed.value()));
}

TEST(ScenarioSpec, FileSpecsKeepThePathVerbatim) {
  auto spec = ScenarioSpec::parse("file:/tmp/my platform@v2/map:x.gridml");
  ASSERT_TRUE(spec.ok()) << spec.error().to_string();
  EXPECT_EQ(spec.value().name, "file");
  EXPECT_EQ(spec.value().payload, "/tmp/my platform@v2/map:x.gridml");
  EXPECT_TRUE(spec.value().dims.empty());
  EXPECT_TRUE(spec.value().rates_mbps.empty());
  EXPECT_EQ(spec.value().to_string(), "file:/tmp/my platform@v2/map:x.gridml");
  EXPECT_FALSE(ScenarioSpec::parse("file:").ok());
  EXPECT_FALSE(ScenarioSpec::parse("file:   ").ok());
}

TEST(ScenarioRegistry, StampsCanonicalSpecAsScenarioName) {
  EXPECT_EQ(reg().make("dumbbell").value().name, "dumbbell");
  EXPECT_EQ(reg().make("dumbbell:3x3@100/10").value().name, "dumbbell:3x3@100/10");
  EXPECT_EQ(reg().make("random-lan:7").value().name, "random-lan:7");
}

TEST(ScenarioRegistry, RejectsExcessOrInvalidParameters) {
  // ens-lyon takes no parameters at all.
  EXPECT_FALSE(reg().make("ens-lyon:3").ok());
  EXPECT_FALSE(reg().make("ens-lyon@100").ok());
  // star takes one dimension and one rate.
  EXPECT_FALSE(reg().make("star:3x3").ok());
  EXPECT_FALSE(reg().make("star:8@100/10").ok());
  // Dimensions must be positive.
  auto zero = reg().make("star:0@100");
  ASSERT_FALSE(zero.ok());
  EXPECT_EQ(zero.error().code, ErrorCode::invalid_argument);
  EXPECT_FALSE(reg().make("dumbbell:-3x3").ok());
}

TEST(ScenarioRegistry, CatalogListsEveryEntry) {
  const auto entries = reg().entries();
  EXPECT_GE(entries.size(), 8u);
  const std::string catalog = reg().render_catalog();
  for (const auto* entry : entries) {
    EXPECT_NE(catalog.find(entry->name), std::string::npos) << entry->name;
  }
  // Entries are name-sorted.
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_LT(entries[i - 1]->name, entries[i]->name);
  }
}

}  // namespace
}  // namespace envnws::api
