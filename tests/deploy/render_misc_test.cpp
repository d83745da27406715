#include <gtest/gtest.h>

#include "api/session.hpp"
#include "common/units.hpp"
#include "deploy/plan.hpp"
#include "deploy/validate.hpp"

namespace envnws::deploy {
namespace {

using units::mbps;

TEST(PlanMisc, RenderListsEverything) {
  DeploymentPlan plan;
  plan.master = "m";
  plan.nameserver_host = "m";
  plan.forecaster_host = "m";
  plan.memory_hosts = {"m", "g"};
  plan.use_host_locks = true;
  PlannedClique clique;
  clique.name = "c1";
  clique.role = CliqueRole::shared_pair;
  clique.members = {"a", "b"};
  clique.network_label = "hub";
  plan.cliques.push_back(clique);
  Substitution sub;
  sub.network_label = "hub";
  sub.covered = {"a", "b", "c"};
  sub.rep_a = "a";
  sub.rep_b = "b";
  plan.substitutions.push_back(sub);
  const std::string out = plan.render();
  for (const char* needle : {"master: m", "host locks", "c1", "shared-pair", "hub",
                             "any pair of {a, b, c}", "experiments per cycle: 2"}) {
    EXPECT_NE(out.find(needle), std::string::npos) << "missing: " << needle << "\n" << out;
  }
}

TEST(PlanMisc, ExperimentsPerCycleIgnoresDegenerateCliques) {
  DeploymentPlan plan;
  PlannedClique lone;
  lone.name = "lone";
  lone.members = {"only"};
  plan.cliques.push_back(lone);
  EXPECT_EQ(plan.experiments_per_cycle(), 0u);
}

TEST(ValidateMisc, RenderShowsViolations) {
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
  const std::string out = report.render();
  EXPECT_NE(out.find("VIOLATIONS"), std::string::npos);
  EXPECT_NE(out.find("NO"), std::string::npos);
  EXPECT_NE(out.find("uncovered"), std::string::npos);
}

TEST(ValidateMisc, ToleranceOptionControlsFindings) {
  simnet::Scenario scenario = simnet::ens_lyon();
  simnet::Network net(simnet::Scenario(scenario).topology);
  api::Session session(net, scenario);
  ASSERT_TRUE(session.run_all().ok());
  // With a 60% tolerance even the asymmetric-return collisions pass.
  ValidatorOptions relaxed;
  relaxed.collision_tolerance = 0.6;
  const ValidationReport report = validate_plan(session.plan_result(), net, relaxed);
  EXPECT_TRUE(report.collision_free);
  // The worst error is still *reported* regardless of tolerance.
  EXPECT_GT(report.worst_collision_error, 0.4);
  session.system().stop();
}

TEST(QueryMisc, UnknownHostsAreNotCoverable) {
  DeploymentPlan plan;
  PlannedClique clique;
  clique.name = "c";
  clique.members = {"a", "b"};
  plan.cliques.push_back(clique);
  const CoverageGraph coverage(plan);
  ASSERT_TRUE(coverage.component("a").has_value());
  EXPECT_EQ(coverage.component("a"), coverage.component("b"));
  EXPECT_FALSE(coverage.component("ghost").has_value());
  EXPECT_TRUE(coverage.route("ghost", "a").empty());
}

TEST(QueryMisc, RouteIsEmptyForSameHost) {
  DeploymentPlan plan;
  PlannedClique clique;
  clique.name = "c";
  clique.members = {"a", "b"};
  plan.cliques.push_back(clique);
  const CoverageGraph coverage(plan);
  EXPECT_TRUE(coverage.route("a", "a").empty());
}

}  // namespace
}  // namespace envnws::deploy
