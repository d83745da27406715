// Planner / manager / validator behaviour of the host-lock extension.
#include <gtest/gtest.h>

#include "api/session.hpp"
#include "common/units.hpp"
#include "deploy/manager.hpp"
#include "deploy/planner.hpp"
#include "deploy/validate.hpp"

namespace envnws::deploy {
namespace {

using env::EnvNetwork;
using env::NetKind;
using units::mbps;

TEST(HostLockPlan, PlannerAssignsParallelTokensToSwitchedCliques) {
  EnvNetwork root;
  root.kind = NetKind::structural;
  EnvNetwork sw;
  sw.kind = NetKind::switched;
  sw.label = "sw";
  sw.machines = {"s1.x", "s2.x", "s3.x", "s4.x", "s5.x", "s6.x"};
  root.children.push_back(sw);
  EnvNetwork hub;
  hub.kind = NetKind::shared;
  hub.label = "hub";
  hub.machines = {"a.x", "b.x", "m.x"};
  root.children.push_back(hub);

  PlannerOptions options;
  options.use_host_locks = true;
  const auto plan = plan_from_tree(root, "m.x", options);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan.value().use_host_locks);
  for (const auto& clique : plan.value().cliques) {
    if (clique.role == CliqueRole::switched_all) {
      EXPECT_EQ(clique.parallel_tokens, 2u);
    } else {
      EXPECT_EQ(clique.parallel_tokens, 1u);  // pairs/inter stay serial
    }
  }
}

TEST(HostLockPlan, ConfigTextKeepsExtensionFields) {
  DeploymentPlan plan;
  plan.master = "m.x";
  plan.nameserver_host = "m.x";
  plan.forecaster_host = "m.x";
  plan.hosts = {"m.x", "a.x", "b.x"};
  plan.use_host_locks = true;
  PlannedClique clique;
  clique.name = "sw";
  clique.role = CliqueRole::switched_all;
  clique.members = {"m.x", "a.x", "b.x"};
  clique.parallel_tokens = 2;
  plan.cliques.push_back(clique);
  const std::string text = generate_config(plan);
  EXPECT_NE(text.find("hostlocks = true"), std::string::npos);
  EXPECT_NE(text.find("tokens = 2"), std::string::npos);
}

TEST(HostLockPlan, EnsLyonBecomesCollisionFreeWithHostLocks) {
  // The reproduction finding of FIG3: the paper's plan suffers up to 50%
  // cross-clique error via the asymmetric return path. The colliding
  // experiments always share a representative host, so the paper's own
  // proposed fix — host locks — eliminates every finding.
  simnet::Scenario scenario = simnet::ens_lyon();
  simnet::Network net(simnet::Scenario(scenario).topology);
  api::SessionOptions options;
  options.planner.use_host_locks = true;
  api::Session session(net, scenario, options);
  const Status status = session.run_all();
  ASSERT_TRUE(status.ok()) << status.error().to_string();
  EXPECT_TRUE(session.validation().collision_free) << session.validation().render();
  EXPECT_TRUE(session.validation().complete);
  // And the deployed system actually runs with locks.
  EXPECT_NE(session.system().host_locks(), nullptr);
  net.run_until(net.now() + 300.0);
  EXPECT_GT(session.system().host_locks()->acquisitions(), 10u);
  session.system().stop();
}

TEST(HostLockPlan, WithoutLocksTheSamePlanHasCollisions) {
  simnet::Scenario scenario = simnet::ens_lyon();
  simnet::Network net(simnet::Scenario(scenario).topology);
  api::Session session(net, scenario);
  ASSERT_TRUE(session.run_all().ok());
  EXPECT_FALSE(session.validation().collision_free);
  session.system().stop();
}

}  // namespace
}  // namespace envnws::deploy
