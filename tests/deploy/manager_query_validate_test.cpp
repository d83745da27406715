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

TEST(ManagerConfig, GenerateParseRoundTrip) {
  const DeploymentPlan plan = sample_plan();
  const std::string text = generate_config(plan);
  const auto parsed = parse_config(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  const DeploymentPlan& back = parsed.value();
  EXPECT_EQ(back.master, plan.master);
  EXPECT_EQ(back.memory_hosts, plan.memory_hosts);
  EXPECT_EQ(back.hosts, plan.hosts);
  ASSERT_EQ(back.cliques.size(), plan.cliques.size());
  EXPECT_EQ(back.cliques[0].name, plan.cliques[0].name);
  EXPECT_EQ(back.cliques[0].role, CliqueRole::shared_pair);
  EXPECT_EQ(back.cliques[0].members, plan.cliques[0].members);
  EXPECT_DOUBLE_EQ(back.cliques[0].period_s, 7.5);
  ASSERT_EQ(back.substitutions.size(), 1u);
  EXPECT_EQ(back.substitutions[0].rep_b, "b.x");
  EXPECT_EQ(back.substitutions[0].covered, plan.substitutions[0].covered);
  // Round-trip is a fixed point.
  EXPECT_EQ(generate_config(back), text);
}

TEST(ManagerConfig, ParseRejectsGarbage) {
  EXPECT_FALSE(parse_config("nonsense without section").ok());
  EXPECT_FALSE(parse_config("[global]\nunknown = 1\n").ok());
  EXPECT_FALSE(parse_config("[clique c]\nrole = bogus\n").ok());
  EXPECT_FALSE(parse_config("[weird]\n").ok());
  EXPECT_FALSE(parse_config("[global]\nnameserver = x\n").ok());  // no master
  EXPECT_FALSE(parse_config("[substitution s]\nrepresentative = only-one\n").ok());
}

TEST(ManagerConfig, ParseRejectsMalformedNumbersAsProtocolErrors) {
  // A hand-edited config with a non-numeric period/probe/tokens value
  // used to throw a bare std::stod/stoll/stoull exception through
  // parse_config; every case must come back as a Result instead. A
  // period that is not finite and positive, or a non-positive probe
  // size, is malformed too: such a period would hang the simulator.
  for (const char* line :
       {"period = fast", "period = 7.5s", "period = 0", "period = nan", "period = -1",
        "period = inf", "probe = lots", "probe = 1e3x", "probe = 0", "tokens = -1",
        "tokens = many", "tokens = 99999999999999999999999"}) {
    const std::string text = std::string("[clique c]\n") + line + "\nmembers = a.x\n";
    auto parsed = parse_config(text);
    ASSERT_FALSE(parsed.ok()) << line;
    EXPECT_EQ(parsed.error().code, ErrorCode::protocol) << line;
    // The error names the malformed value, not a downstream complaint.
    EXPECT_NE(parsed.error().message.find("bad clique"), std::string::npos)
        << parsed.error().message;
  }
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
  EXPECT_GT(system.value()->total_measurements(), 20u);
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
  EXPECT_TRUE(coverage.coverable("c.x", "m.x"));
  EXPECT_TRUE(coverage.coverable("b.x", "m.x"));
  EXPECT_FALSE(coverage.coverable("c.x", "unknown.x"));
  EXPECT_TRUE(coverage.coverable("a.x", "a.x"));
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
