#include <gtest/gtest.h>

#include <algorithm>

#include "common/units.hpp"
#include "deploy/manager.hpp"
#include "deploy/planner.hpp"
#include "deploy/query.hpp"
#include "deploy/validate.hpp"
#include "simnet/scenario.hpp"

namespace envnws::deploy {
namespace {

using env::EnvNetwork;
using env::NetKind;
using units::mbps;

DeploymentPlan sample_plan() {
  DeploymentPlan plan;
  plan.master = "m.x";
  plan.nameserver_host = "m.x";
  plan.forecaster_host = "m.x";
  plan.memory_hosts = {"m.x", "gw.x"};
  plan.hosts = {"a.x", "b.x", "c.x", "gw.x", "m.x"};
  PlannedClique clique;
  clique.name = "clique-1-hub";
  clique.role = CliqueRole::shared_pair;
  clique.members = {"a.x", "b.x"};
  clique.network_label = "hub";
  clique.period_s = 7.5;
  plan.cliques.push_back(clique);
  PlannedClique inter;
  inter.name = "clique-2-root";
  inter.role = CliqueRole::inter;
  inter.members = {"a.x", "gw.x", "m.x"};
  inter.network_label = "root";
  plan.cliques.push_back(inter);
  Substitution substitution;
  substitution.network_label = "hub";
  substitution.covered = {"a.x", "b.x", "c.x"};
  substitution.rep_a = "a.x";
  substitution.rep_b = "b.x";
  plan.substitutions.push_back(substitution);
  return plan;
}

TEST(ManagerConfig, LocalAssignmentExtractsPerHostDuties) {
  const DeploymentPlan plan = sample_plan();
  const HostAssignment master = local_assignment(plan, "m.x");
  EXPECT_TRUE(master.nameserver);
  EXPECT_TRUE(master.forecaster);
  EXPECT_TRUE(master.memory);
  EXPECT_TRUE(master.host_sensor);
  ASSERT_EQ(master.cliques.size(), 1u);
  EXPECT_EQ(master.cliques[0], "clique-2-root");

  const HostAssignment a = local_assignment(plan, "a.x");
  EXPECT_FALSE(a.nameserver);
  EXPECT_EQ(a.cliques.size(), 2u);
  const HostAssignment c = local_assignment(plan, "c.x");
  EXPECT_TRUE(c.cliques.empty());
  EXPECT_TRUE(c.host_sensor);
  EXPECT_NE(master.render().find("nameserver"), std::string::npos);
}

TEST(Manager, ApplyPlanRejectsUnknownHosts) {
  auto scenario = simnet::star_switch(3, mbps(100));
  simnet::Network net(std::move(scenario.topology));
  DeploymentPlan plan;
  plan.master = "ghost";
  plan.nameserver_host = "ghost";
  plan.forecaster_host = "ghost";
  plan.hosts = {"ghost"};
  EXPECT_FALSE(apply_plan(plan, net).ok());
}

TEST(Manager, ApplyPlanRejectsAZeroCliquePeriod) {
  // A clique whose token never advances the clock would make the next
  // run_until() spin forever; apply_plan refuses it up front.
  auto scenario = simnet::star_switch(3, mbps(100));
  simnet::Network net(std::move(scenario.topology));
  DeploymentPlan plan;
  plan.master = "h0.lan";
  plan.nameserver_host = "h0.lan";
  plan.forecaster_host = "h0.lan";
  plan.memory_hosts = {"h0.lan"};
  plan.hosts = {"h0.lan", "h1.lan", "h2.lan"};
  PlannedClique clique;
  clique.name = "all";
  clique.role = CliqueRole::switched_all;
  clique.members = plan.hosts;
  clique.period_s = 0.0;
  plan.cliques.push_back(clique);
  auto system = apply_plan(plan, net);
  ASSERT_FALSE(system.ok());
  EXPECT_EQ(system.error().code, ErrorCode::invalid_argument);
  EXPECT_NE(system.error().message.find("'all'"), std::string::npos) << system.error().message;
}

TEST(Manager, ApplyPlanStartsWorkingSystem) {
  auto scenario = simnet::star_switch(3, mbps(100));
  simnet::Network net(std::move(scenario.topology));
  DeploymentPlan plan;
  plan.master = "h0.lan";
  plan.nameserver_host = "h0.lan";
  plan.forecaster_host = "h0.lan";
  plan.memory_hosts = {"h0.lan"};
  plan.hosts = {"h0.lan", "h1.lan", "h2.lan"};
  PlannedClique clique;
  clique.name = "all";
  clique.role = CliqueRole::switched_all;
  clique.members = plan.hosts;
  clique.period_s = 2.0;
  plan.cliques.push_back(clique);
  auto system = apply_plan(plan, net);
  ASSERT_TRUE(system.ok()) << system.error().to_string();
  net.run_until(120.0);
  std::size_t measurements = 0;
  for (const auto& src : plan.hosts) {
    for (const auto& dst : plan.hosts) {
      const std::string a = src.substr(0, src.find('.'));
      const std::string b = dst.substr(0, dst.find('.'));
      if (const auto* series = system.value()->find_series({nws::ResourceKind::bandwidth, a, b})) {
        measurements += series->size();
      }
    }
  }
  EXPECT_GT(measurements, 20u);
  // fqdn resolution worked: series are stored under node names.
  EXPECT_NE(system.value()->find_series({nws::ResourceKind::bandwidth, "h0", "h1"}), nullptr);
  system.value()->stop();
}

TEST(Coverage, DirectSubstitutedAggregatedRoutes) {
  const DeploymentPlan plan = sample_plan();
  const CoverageGraph coverage(plan);
  // Direct clique pair.
  ASSERT_NE(coverage.measured_pair("a.x", "b.x"), nullptr);
  // Substituted: (b.x, c.x) answered by (a.x, b.x).
  const auto* substituted = coverage.measured_pair("b.x", "c.x");
  ASSERT_NE(substituted, nullptr);
  EXPECT_EQ(substituted->first, "a.x");
  // Aggregated: c.x -> gw.x via the hub then the inter clique.
  const auto route = coverage.route("c.x", "gw.x");
  ASSERT_GE(route.size(), 2u);
  ASSERT_TRUE(coverage.component("m.x").has_value());
  EXPECT_EQ(coverage.component("c.x"), coverage.component("m.x"));
  EXPECT_EQ(coverage.component("b.x"), coverage.component("m.x"));
  EXPECT_FALSE(coverage.component("unknown.x").has_value());
}

TEST(Validate, CleanPlanOnSwitchPasses) {
  auto scenario = simnet::star_switch(4, mbps(100));
  simnet::Network net(std::move(scenario.topology));
  DeploymentPlan plan;
  plan.master = "h0.lan";
  plan.nameserver_host = "h0.lan";
  plan.forecaster_host = "h0.lan";
  plan.hosts = {"h0.lan", "h1.lan", "h2.lan", "h3.lan"};
  PlannedClique clique;
  clique.name = "all";
  clique.role = CliqueRole::switched_all;
  clique.members = plan.hosts;
  plan.cliques.push_back(clique);
  const ValidationReport report = validate_plan(plan, net);
  EXPECT_TRUE(report.collision_free);  // single clique: serialized by token
  EXPECT_TRUE(report.complete);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.max_clique_size, 4u);
  EXPECT_EQ(report.experiments_per_cycle, 12u);
  EXPECT_NE(report.render().find("OK"), std::string::npos);
}

TEST(Validate, DetectsCrossCliqueCollisionOnHub) {
  auto scenario = simnet::star_hub(4, mbps(100));
  simnet::Network net(std::move(scenario.topology));
  DeploymentPlan plan;
  plan.master = "h0.lan";
  plan.nameserver_host = "h0.lan";
  plan.forecaster_host = "h0.lan";
  plan.hosts = {"h0.lan", "h1.lan", "h2.lan", "h3.lan"};
  for (int c = 0; c < 2; ++c) {
    PlannedClique clique;
    clique.name = "c" + std::to_string(c);
    clique.role = CliqueRole::shared_pair;
    clique.members = {"h" + std::to_string(2 * c) + ".lan",
                      "h" + std::to_string(2 * c + 1) + ".lan"};
    plan.cliques.push_back(clique);
  }
  const ValidationReport report = validate_plan(plan, net);
  // Two cliques on ONE hub: experiments share the medium -> ~50% error.
  EXPECT_FALSE(report.collision_free);
  EXPECT_NEAR(report.worst_collision_error, 0.5, 0.01);
  EXPECT_FALSE(report.collisions.empty());
  // And substitution entries are missing: pairs across the split
  // cliques are unanswerable -> incomplete.
  EXPECT_FALSE(report.complete);
  EXPECT_FALSE(report.ok());
}

TEST(Validate, SubstitutionRestoresCompleteness) {
  auto scenario = simnet::star_hub(4, mbps(100));
  simnet::Network net(std::move(scenario.topology));
  DeploymentPlan plan;
  plan.master = "h0.lan";
  plan.nameserver_host = "h0.lan";
  plan.forecaster_host = "h0.lan";
  plan.hosts = {"h0.lan", "h1.lan", "h2.lan", "h3.lan"};
  PlannedClique clique;
  clique.name = "pair";
  clique.role = CliqueRole::shared_pair;
  clique.members = {"h0.lan", "h1.lan"};
  plan.cliques.push_back(clique);
  Substitution substitution;
  substitution.network_label = "hub";
  substitution.covered = plan.hosts;
  substitution.rep_a = "h0.lan";
  substitution.rep_b = "h1.lan";
  plan.substitutions.push_back(substitution);
  const ValidationReport report = validate_plan(plan, net);
  EXPECT_TRUE(report.collision_free);
  EXPECT_TRUE(report.complete);
}

}  // namespace
}  // namespace envnws::deploy
