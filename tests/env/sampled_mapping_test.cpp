// Hierarchical sampled interrogation (MapperOptions::max_pairwise):
// the digest contract — max_pairwise=0 is bit-identical to the paper's
// full protocol, and a sampled run is a pure deterministic function of
// (spec, sample_seed) independent of probe_jobs — plus the experiment
// budget and the SampleStats accounting.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "api/envnws.hpp"
#include "common/hash.hpp"
#include "common/units.hpp"
#include "env/mapper.hpp"
#include "lan_segments.hpp"
#include "env/scenario_zones.hpp"
#include "env/sim_probe_engine.hpp"
#include "simnet/network.hpp"
#include "simnet/scenario.hpp"

namespace envnws::env {
namespace {

simnet::Scenario make_scenario(const std::string& spec) {
  auto made = api::ScenarioRegistry::builtin().make(spec);
  EXPECT_TRUE(made.ok()) << spec;
  return std::move(made.value());
}

/// Full multi-zone map of `spec` with the given sampling knobs.
MapResult map_with(const std::string& spec, int max_pairwise,
                   std::uint64_t sample_seed = MapperOptions{}.sample_seed, int probe_jobs = 1) {
  const simnet::Scenario scenario = make_scenario(spec);
  simnet::Network net(simnet::Scenario(scenario).topology);
  MapperOptions options;
  options.max_pairwise = max_pairwise;
  options.sample_seed = sample_seed;
  options.probe_jobs = probe_jobs;
  SimProbeEngine engine(net, options);
  Mapper mapper(engine, options);
  const auto zones = zones_from_scenario(scenario);
  EXPECT_TRUE(zones.ok());
  auto result = mapper.map(zones.value());
  EXPECT_TRUE(result.ok()) << result.error().to_string();
  return std::move(result.value());
}

TEST(SampledMapping, ZeroBudgetIsBitIdenticalToTheFullProtocol) {
  const MapResult full = map_with("star-switch:16@100", 0, 1);
  // An explicit budget large enough for every pair never triggers
  // sampling either: C(15,2) = 105 pairwise experiments fit in 200.
  const MapResult roomy = map_with("star-switch:16@100", 200, 1);
  EXPECT_EQ(full.identity_digest(), roomy.identity_digest());
  EXPECT_EQ(full.stats.experiments, roomy.stats.experiments);
  EXPECT_EQ(roomy.sampling.sampled_groups, 0u);
  EXPECT_EQ(roomy.sampling.representatives, 0u);

  // The seed is dead weight outside sampled mode: full interrogation
  // never consults it.
  const MapResult reseeded = map_with("star-switch:16@100", 0, 0xfeedULL);
  EXPECT_EQ(full.identity_digest(), reseeded.identity_digest());
}

TEST(SampledMapping, BudgetBoundsExperimentsAndAccountsEveryMember) {
  const MapResult full = map_with("star-switch:16@100", 0, 1);
  const MapResult sampled = map_with("star-switch:16@100", 8, 1);

  // The budget genuinely cut probing: the full run's 105 2b pairs (and
  // 105 2c internal pairs) collapse to the representative clique plus
  // per-member refinement.
  EXPECT_LT(sampled.stats.experiments, full.stats.experiments);
  EXPECT_EQ(sampled.sampling.sampled_groups, 1u);
  EXPECT_GT(sampled.sampling.representatives, 0u);
  // Every non-representative member is either inferred or escalated.
  EXPECT_EQ(sampled.sampling.representatives + sampled.sampling.inferred_members +
                sampled.sampling.escalated_members,
            15u);
  // A uniform star gives sampling no reason to distrust its buckets.
  EXPECT_EQ(sampled.sampling.escalated_members, 0u);
  // 2c sampling engaged too: the switched segment has 120 member pairs.
  EXPECT_GT(sampled.sampling.sampled_clusters, 0u);
  EXPECT_LE(sampled.sampling.sampled_internal_pairs, 8u);

  // The sampled tree still finds the same structure: one switched
  // segment holding all 16 machines.
  const auto segments = lan_segments(sampled.root);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments.front()->kind, NetKind::switched);
  EXPECT_EQ(segments.front()->machines.size(), 16u);
}

TEST(SampledMapping, SampledDigestIsAPureFunctionOfSpecAndSeed) {
  const MapResult first = map_with("star-switch:16@100", 8, 42);
  const MapResult again = map_with("star-switch:16@100", 8, 42);
  EXPECT_EQ(first.identity_digest(), again.identity_digest());
  EXPECT_EQ(first.stats.experiments, again.stats.experiments);

  // probe_jobs schedules the same experiments differently; it must
  // never change which experiments the sampler picks, nor the result.
  const MapResult batched = map_with("star-switch:16@100", 8, 42, 8);
  EXPECT_EQ(first.identity_digest(), batched.identity_digest());
}

TEST(SampledMapping, MultiZonePlatformsSampleEachZoneIndependently) {
  // Every private firewall zone exceeds the budget on its own; the
  // merged result stays deterministic and accounts per-zone stats.
  const MapResult first = map_with("multi-firewall:2x12@100/100", 6, 7);
  const MapResult again = map_with("multi-firewall:2x12@100/100", 6, 7);
  EXPECT_EQ(first.identity_digest(), again.identity_digest());
  EXPECT_GT(first.sampling.sampled_groups, 0u);

  const MapResult batched = map_with("multi-firewall:2x12@100/100", 6, 7, 8);
  EXPECT_EQ(first.identity_digest(), batched.identity_digest());
}

std::string short_digest(const MapResult& result) {
  return hash::hex64(hash::fnv1a64(result.identity_digest()));
}

TEST(SampledMapping, LargeStarDigestsArePinned) {
  // Recorded before the mapper resolved names through one hash index
  // and kept per-host state in flat vectors: the bookkeeping changed,
  // the result must not.
  const std::vector<std::pair<std::string, std::string>> pinned{
      {"star-switch:2048@100", "bb1291ea4f351522"},
      {"star-switch:4096@100", "542297ba5083de80"},
      {"star-switch:16384@100", "0e741af3263d628c"}};
  for (const auto& [spec, digest] : pinned) {
    EXPECT_EQ(short_digest(map_with(spec, 64)), digest) << spec;
  }
}

TEST(SampledMapping, MultiZoneSampledMergeIsPinned) {
  // Four firewall zones behind a public one, each sampled, folded into
  // the primary view by the §4.3 merge: every machine of the merged
  // document lands in the merged view under its canonical name, and the
  // result is the one recorded before the merge went through one name
  // index.
  const MapResult result = map_with("multi-firewall:4x16@100/100", 6);
  ASSERT_EQ(result.zones.size(), 5u);
  EXPECT_GT(result.sampling.sampled_groups, 0u);
  for (const auto& warning : result.warnings) {
    EXPECT_EQ(warning.find("not in merged view"), std::string::npos) << warning;
  }
  std::set<std::string> in_view;
  for (const auto& machine : result.root.all_machines()) in_view.insert(result.canonical(machine));
  std::set<std::string> in_grid;
  for (const auto& site : result.grid.sites) {
    for (const auto& machine : site.machines) in_grid.insert(result.canonical(machine.name));
  }
  EXPECT_EQ(in_view, in_grid);
  EXPECT_EQ(short_digest(result), "8b38d60fac897e50");
}

TEST(SampledMapping, LargeStarRoutesThroughOneShortestPathTree) {
  // Every star host is a leaf of the switch, so the whole map, with a
  // traceroute from every host, routes through the switch's one tree.
  const simnet::Scenario scenario = make_scenario("star-switch:2048@100");
  simnet::Network net(simnet::Scenario(scenario).topology);
  MapperOptions options;
  options.max_pairwise = 64;
  options.sample_seed = 1;
  SimProbeEngine engine(net, options);
  Mapper mapper(engine, options);
  const auto zones = zones_from_scenario(scenario);
  ASSERT_TRUE(zones.ok());
  const auto result = mapper.map(zones.value());
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_GT(result.value().stats.experiments, 2048u);
  EXPECT_EQ(net.routes().trees_built(), 1u);
}

}  // namespace
}  // namespace envnws::env
