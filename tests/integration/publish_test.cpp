// The §4.3 "Bandwidth waste" workflow: map once, publish the GridML,
// redeploy anywhere from the published file without injecting a single
// ENV probe. Plus the memory-server dump/restore persistence.
#include <gtest/gtest.h>

#include "api/session.hpp"
#include "common/units.hpp"
#include "nws/memory.hpp"

namespace envnws::api {
namespace {

using units::mbps;

/// Deploy from published GridML text: seed a scenario-less session's map
/// stage with the view, then plan, apply and validate.
Status deploy_from_gridml(Session& session, const std::string& gridml_text,
                          const std::string& master) {
  if (auto loaded = session.load_map_from_gridml(gridml_text, master); !loaded.ok()) {
    return loaded;
  }
  return session.run_all();
}

TEST(PublishWorkflow, DeployFromPublishedGridmlWithoutProbes) {
  // First operator maps the platform and publishes the result.
  std::string published;
  {
    simnet::Scenario scenario = simnet::ens_lyon();
    simnet::Network net(simnet::Scenario(scenario).topology);
    Session session(net, scenario);
    ASSERT_TRUE(session.run_all().ok());
    published = session.map_result().grid.to_string();
    session.system().stop();
  }

  // Second operator deploys from the file on a fresh platform instance.
  simnet::Scenario scenario = simnet::ens_lyon();
  simnet::Network net(simnet::Scenario(scenario).topology);
  Session session(net);
  const Status status = deploy_from_gridml(session, published, "the-doors.ens-lyon.fr");
  ASSERT_TRUE(status.ok()) << status.error().to_string();

  // Not a single mapping probe was injected on this network.
  EXPECT_EQ(net.stats().by_purpose.count("env-probe"), 0u);

  // The deployment is complete and the monitoring works.
  EXPECT_TRUE(session.validation().complete);
  net.run_until(net.now() + 600.0);
  auto reply = session.queries().bandwidth("the-doors", "the-doors.ens-lyon.fr",
                                           "sci3.popc.private");
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  EXPECT_NEAR(reply.value().value, mbps(10), mbps(1.5));

  // Memory servers were placed on the master + the gateways named in
  // the published view (no zone data is available in this workflow).
  EXPECT_GE(session.plan_result().memory_hosts.size(), 2u);
  session.system().stop();
}

TEST(PublishWorkflow, SameCliqueStructureAsLiveMapping) {
  simnet::Scenario scenario = simnet::ens_lyon();
  simnet::Network net(simnet::Scenario(scenario).topology);
  Session live(net, scenario);
  ASSERT_TRUE(live.run_all().ok());
  const std::string published = live.map_result().grid.to_string();
  live.system().stop();

  simnet::Network net2(simnet::Scenario(scenario).topology);
  Session replay(net2);
  ASSERT_TRUE(deploy_from_gridml(replay, published, "the-doors.ens-lyon.fr").ok());
  // Same number of cliques with the same member counts (representative
  // *choice* may differ: zone-master preference is lost in publication).
  const auto& live_cliques = live.plan_result().cliques;
  const auto& replay_cliques = replay.plan_result().cliques;
  ASSERT_EQ(replay_cliques.size(), live_cliques.size());
  for (std::size_t i = 0; i < live_cliques.size(); ++i) {
    EXPECT_EQ(replay_cliques[i].members.size(), live_cliques[i].members.size());
    EXPECT_EQ(replay_cliques[i].role, live_cliques[i].role);
  }
  replay.system().stop();
}

TEST(PublishWorkflow, RejectsDocumentsWithoutNetworkTree) {
  simnet::Scenario scenario = simnet::ens_lyon();
  simnet::Network net(simnet::Scenario(scenario).topology);
  Session no_tree(net);
  EXPECT_FALSE(deploy_from_gridml(no_tree, "<GRID />", "the-doors.ens-lyon.fr").ok());
  Session not_xml(net);
  EXPECT_FALSE(deploy_from_gridml(not_xml, "not xml at all", "x").ok());
}

TEST(MemoryPersistence, DumpRestoreRoundTrip) {
  nws::MemoryServer original("mem", simnet::NodeId(0));
  original.store({nws::ResourceKind::bandwidth, "a", "b"}, 1.5, 9.9e7);
  original.store({nws::ResourceKind::bandwidth, "a", "b"}, 2.5, 9.8e7);
  original.store({nws::ResourceKind::cpu, "h", ""}, 3.0, 0.75);
  const std::string dump = original.dump();

  nws::MemoryServer restored("mem2", simnet::NodeId(1));
  ASSERT_TRUE(restored.restore(dump).ok());
  const auto* bw = restored.find({nws::ResourceKind::bandwidth, "a", "b"});
  ASSERT_NE(bw, nullptr);
  ASSERT_EQ(bw->size(), 2u);
  EXPECT_DOUBLE_EQ(bw->at(0).time, 1.5);
  EXPECT_DOUBLE_EQ(bw->at(1).value, 9.8e7);
  const auto* cpu = restored.find({nws::ResourceKind::cpu, "h", ""});
  ASSERT_NE(cpu, nullptr);
  EXPECT_DOUBLE_EQ(cpu->latest().value, 0.75);
  // The restored dump carries the same series lines (header differs by
  // server name only).
  const std::string dump2 = restored.dump();
  EXPECT_NE(dump2.find("series bandwidth a b"), std::string::npos);
  EXPECT_NE(dump2.find("series availableCpu h -"), std::string::npos);
  EXPECT_EQ(dump.substr(dump.find('\n')), dump2.substr(dump2.find('\n')));
}

TEST(MemoryPersistence, RestoreRejectsGarbage) {
  nws::MemoryServer memory("mem", simnet::NodeId(0));
  EXPECT_FALSE(memory.restore("series bogus a b\n1 2\n").ok());
  EXPECT_FALSE(memory.restore("1.0 2.0\n").ok());  // data before header
  EXPECT_FALSE(memory.restore("series bandwidth a\n").ok());  // missing field
  EXPECT_FALSE(memory.restore("series bandwidth a b\nnot numbers\n").ok());
  // A point line is exactly two finite numbers.
  EXPECT_FALSE(memory.restore("series bandwidth a b\n1 2 junk\n").ok());
  EXPECT_FALSE(memory.restore("series bandwidth a b\n1 2 3\n").ok());
  EXPECT_FALSE(memory.restore("series bandwidth a b\n1e999 2\n").ok());
  EXPECT_EQ(memory.restore("series bandwidth a b\n1 2 3\n").error().code, ErrorCode::protocol);
  // Empty and comment-only dumps are fine no-ops.
  EXPECT_TRUE(memory.restore("").ok());
  EXPECT_TRUE(memory.restore("# just a comment\n").ok());
}

}  // namespace
}  // namespace envnws::api
