// Registry-driven property test: every builtin scenario family runs the
// full pipeline, the deployment answers every host pair (validation
// completeness), and mapping the zones concurrently produces a MapResult
// identical to the sequential one — grid, effective view, master and
// warnings alike.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "api/envnws.hpp"
#include "env/env_tree.hpp"

namespace envnws::api {
namespace {

namespace fs = std::filesystem;

/// Maps `scenario` twice — zones sequential vs. concurrent — and checks
/// the merged results match; then plans and validates the parallel one.
void check_scenario(const std::string& spec, const simnet::Scenario& scenario) {
  SCOPED_TRACE("scenario " + spec);

  simnet::Network sequential_net(simnet::Scenario(scenario).topology);
  Session sequential(sequential_net, scenario);
  ASSERT_TRUE(sequential.map().ok()) << spec;

  simnet::Network parallel_net(simnet::Scenario(scenario).topology);
  Session parallel(parallel_net, scenario);
  parallel.options().mapper.map_threads = 4;
  ASSERT_TRUE(parallel.map().ok()) << spec;

  const env::MapResult& a = sequential.map_result();
  const env::MapResult& b = parallel.map_result();
  EXPECT_EQ(a.master_fqdn, b.master_fqdn);
  EXPECT_EQ(a.warnings, b.warnings);
  EXPECT_EQ(a.grid.to_string(), b.grid.to_string());
  EXPECT_EQ(env::render_effective(a.root), env::render_effective(b.root));
  EXPECT_EQ(a.stats.experiments, b.stats.experiments);
  ASSERT_EQ(a.zones.size(), b.zones.size());
  for (std::size_t z = 0; z < a.zones.size(); ++z) {
    EXPECT_EQ(a.zones[z].spec.zone_name, b.zones[z].spec.zone_name);
    EXPECT_EQ(env::render_effective(a.zones[z].root), env::render_effective(b.zones[z].root));
  }
  // Concurrent zones probe private platform replicas: the session's own
  // network carries no probe traffic at all.
  const auto& purposes = parallel_net.stats().by_purpose;
  EXPECT_EQ(purposes.find("env-probe"), purposes.end()) << spec;

  // Identical views plan identically; the plan answers every host pair.
  ASSERT_TRUE(sequential.plan().ok()) << spec;
  ASSERT_TRUE(parallel.plan().ok()) << spec;
  EXPECT_EQ(sequential.config_text(), parallel.config_text());
  ASSERT_TRUE(parallel.validate().ok()) << spec;
  EXPECT_TRUE(parallel.validation().complete) << spec << "\n" << parallel.validation().render();
}

TEST(RegistryPipeline, EveryBuiltinFamilyMapsPlansAndValidatesCompletely) {
  for (const auto* entry : ScenarioRegistry::builtin().entries()) {
    if (entry->name == "file") continue;  // exercised separately below
    auto scenario = ScenarioRegistry::builtin().make(entry->name);
    ASSERT_TRUE(scenario.ok()) << entry->name << ": " << scenario.error().to_string();
    check_scenario(entry->name, scenario.value());
  }
}

TEST(RegistryPipeline, NoPlannedCliqueListsAMemberTwice) {
  // A gateway that stands for several sibling groups joins their inter
  // clique once: a repeat would count n(n-1) experiments for n names and
  // report each of its collisions twice.
  std::vector<std::string> specs{"multi-firewall:2x3"};
  for (const auto* entry : ScenarioRegistry::builtin().entries()) {
    if (entry->name != "file") specs.push_back(entry->name);
  }
  for (const auto& spec : specs) {
    auto scenario = ScenarioRegistry::builtin().make(spec);
    ASSERT_TRUE(scenario.ok()) << spec << ": " << scenario.error().to_string();
    simnet::Network net(simnet::Scenario(scenario.value()).topology);
    Session session(net, scenario.value());
    ASSERT_TRUE(session.plan().ok()) << spec;
    for (const auto& clique : session.plan_result().cliques) {
      std::set<std::string> seen;
      for (const auto& member : clique.members) {
        EXPECT_TRUE(seen.insert(member).second)
            << spec << ": " << clique.name << " lists " << member << " twice";
      }
    }
  }
}

TEST(RegistryPipeline, RandomLanSeedsMapIdenticallyInParallel) {
  for (const int seed : {1, 2, 3}) {
    const std::string spec = "random-lan:" + std::to_string(seed);
    auto scenario = ScenarioRegistry::builtin().make(spec);
    ASSERT_TRUE(scenario.ok()) << spec;
    check_scenario(spec, scenario.value());
  }
}

TEST(RegistryPipeline, MultiZoneFamilyMapsIdenticallyInParallel) {
  auto scenario = ScenarioRegistry::builtin().make("multi-firewall:4x3@100/100");
  ASSERT_TRUE(scenario.ok());
  check_scenario("multi-firewall:4x3@100/100", scenario.value());
}

TEST(RegistryPipeline, FileFamilyRunsThePipelineOnAPublishedView) {
  // Publish a mapped view to disk, then drive the whole pipeline from it.
  const std::string published = [] {
    auto scenario = ScenarioRegistry::builtin().make("dumbbell:3x3@100/10").value();
    simnet::Network net(simnet::Scenario(scenario).topology);
    Session session(net, scenario);
    EXPECT_TRUE(session.map().ok());
    return session.map_result().grid.to_string();
  }();
  const fs::path path = fs::path(::testing::TempDir()) / "envnws-published-view.gridml";
  { std::ofstream(path) << published; }

  const std::string spec = "file:" + path.string();
  auto scenario = ScenarioRegistry::builtin().make(spec);
  ASSERT_TRUE(scenario.ok()) << scenario.error().to_string();
  EXPECT_EQ(scenario.value().name, spec);  // canonical spec stamped
  EXPECT_GE(scenario.value().topology.hosts().size(), 6u);
  check_scenario(spec, scenario.value());

  // Missing and garbage files fail loudly, with the right categories.
  auto missing = ScenarioRegistry::builtin().make("file:/definitely/not/there.gridml");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code, ErrorCode::not_found);
  const fs::path garbage = fs::path(::testing::TempDir()) / "envnws-garbage.gridml";
  { std::ofstream(garbage) << "this is not xml"; }
  EXPECT_FALSE(ScenarioRegistry::builtin().make("file:" + garbage.string()).ok());
}

}  // namespace
}  // namespace envnws::api
