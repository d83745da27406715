// The staged pipeline: stage reuse, observer event ordering, probe
// backend pluggability, and equivalence of staged runs with one-call
// run_all() pipelines.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "api/envnws.hpp"
#include "common/units.hpp"
#include "env/sim_probe_engine.hpp"

namespace envnws::api {
namespace {

using units::mbps;

simnet::Scenario test_scenario() {
  return ScenarioRegistry::builtin().make("dumbbell:3x3@100/10").value();
}

std::uint64_t probe_flows(const simnet::Network& net) {
  const auto it = net.stats().by_purpose.find("env-probe");
  return it == net.stats().by_purpose.end() ? 0 : it->second.flow_count;
}

TEST(Session, PlanFromCachedMapIsIdenticalToAutoDeploy) {
  const auto scenario = test_scenario();

  simnet::Network reference_net(simnet::Scenario(scenario).topology);
  Session reference(reference_net, scenario);
  const Status status = reference.run_all();
  ASSERT_TRUE(status.ok()) << status.error().to_string();

  simnet::Network net(simnet::Scenario(scenario).topology);
  Session session(net, scenario);
  ASSERT_TRUE(session.map().ok());
  ASSERT_TRUE(session.plan().ok());
  EXPECT_EQ(session.config_text(), reference.config_text());
  EXPECT_EQ(session.plan_result().render(), reference.plan_result().render());
  reference.system().stop();
}

TEST(Session, RePlanningReusesTheCachedMapWithoutReProbing) {
  simnet::Network net(simnet::Scenario(test_scenario()).topology);
  Session session(net, test_scenario());
  ASSERT_TRUE(session.plan().ok());  // auto-runs the map stage first
  const std::uint64_t probes_after_map = probe_flows(net);
  ASSERT_GT(probes_after_map, 0u);
  const std::string first_config = session.config_text();

  // Re-plan with host locks: different plan, not a single new probe.
  session.options().planner.use_host_locks = true;
  ASSERT_TRUE(session.plan().ok());
  EXPECT_EQ(probe_flows(net), probes_after_map);
  EXPECT_NE(session.config_text(), first_config);

  // And back: byte-identical to the first plan.
  session.options().planner.use_host_locks = false;
  ASSERT_TRUE(session.plan().ok());
  EXPECT_EQ(probe_flows(net), probes_after_map);
  EXPECT_EQ(session.config_text(), first_config);
}

TEST(Session, LoadedMapIsPlannedWithoutProbing) {
  // First session maps and publishes; second one re-plans from the
  // published view.
  simnet::Network net1(simnet::Scenario(test_scenario()).topology);
  Session first(net1, test_scenario());
  ASSERT_TRUE(first.map().ok());
  ASSERT_TRUE(first.plan().ok());
  const std::string expected_config = first.config_text();
  const std::string published = first.map_result().grid.to_string();

  simnet::Network net2(simnet::Scenario(test_scenario()).topology);
  Session second(net2);  // no scenario: the map stage must come from the view
  ASSERT_TRUE(second.load_map_from_gridml(published, first.map_result().master_fqdn).ok());
  ASSERT_TRUE(second.run_all().ok());
  EXPECT_EQ(probe_flows(net2), 0u);
  EXPECT_EQ(second.config_text(), expected_config);
  second.system().stop();
}

TEST(Session, MapFailsWithoutScenarioOrCache) {
  simnet::Network net(simnet::Scenario(test_scenario()).topology);
  Session session(net);
  EventLog log;
  session.set_observer(&log);
  auto status = session.run_all();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, ErrorCode::invalid_argument);
  ASSERT_FALSE(log.events().empty());
  EXPECT_EQ(log.events().back().kind, Event::Kind::stage_failed);
  EXPECT_EQ(log.events().back().stage, Stage::map);
}

TEST(Session, FailedMapCallDoesNotDiscardASeededMap) {
  simnet::Network net1(simnet::Scenario(test_scenario()).topology);
  Session first(net1, test_scenario());
  ASSERT_TRUE(first.map().ok());
  const std::string published = first.map_result().grid.to_string();

  simnet::Network net2(simnet::Scenario(test_scenario()).topology);
  Session session(net2);
  ASSERT_TRUE(session.load_map_from_gridml(published, "l0.lan").ok());
  // Probing is impossible without a scenario — but the error must not
  // wipe the seeded map it tells the caller to provide: plan() runs on
  // it instead of failing in a re-run of map().
  EXPECT_FALSE(session.map().ok());
  EXPECT_TRUE(session.plan().ok());
  EXPECT_EQ(probe_flows(net2), 0u);
}

TEST(Session, ObserverSeesStagesInPipelineOrder) {
  simnet::Network net(simnet::Scenario(test_scenario()).topology);
  Session session(net, test_scenario());
  EventLog log;
  session.set_observer(&log);
  ASSERT_TRUE(session.run_all().ok());

  std::vector<std::pair<Event::Kind, Stage>> markers;
  for (const auto& event : log.events()) {
    if (event.kind == Event::Kind::stage_started || event.kind == Event::Kind::stage_finished ||
        event.kind == Event::Kind::stage_failed) {
      markers.emplace_back(event.kind, event.stage);
    }
  }
  const std::vector<std::pair<Event::Kind, Stage>> expected{
      {Event::Kind::stage_started, Stage::map},
      {Event::Kind::stage_finished, Stage::map},
      {Event::Kind::stage_started, Stage::plan},
      {Event::Kind::stage_finished, Stage::plan},
      {Event::Kind::stage_started, Stage::apply},
      {Event::Kind::stage_finished, Stage::apply},
      {Event::Kind::stage_started, Stage::validate},
      {Event::Kind::stage_finished, Stage::validate},
  };
  EXPECT_EQ(markers, expected);

  // Event timestamps never go backwards (the map stage advances the
  // simulated clock, later stages are instantaneous).
  for (std::size_t i = 1; i < log.events().size(); ++i) {
    EXPECT_GE(log.events()[i].sim_time_s, log.events()[i - 1].sim_time_s);
  }
  session.system().stop();
}

TEST(Session, ZoneEventsAreSequencedBetweenMapMarkers) {
  const auto scenario =
      ScenarioRegistry::builtin().make("multi-firewall:2x2@100/100").value();
  simnet::Network net(simnet::Scenario(scenario).topology);
  Session session(net, scenario);
  EventLog log;
  session.set_observer(&log);
  ASSERT_TRUE(session.map().ok());

  // Sequence stamps count every delivery, gap-free.
  for (std::size_t i = 0; i < log.events().size(); ++i) {
    EXPECT_EQ(log.events()[i].sequence, i);
  }
  // Zone events sit strictly between the map stage's start/finish
  // markers, one started+finished pair per zone (3 zones: public + 2).
  std::size_t started_at = 0;
  std::size_t finished_at = 0;
  std::map<int, std::vector<Event::Kind>> per_zone;
  for (std::size_t i = 0; i < log.events().size(); ++i) {
    const Event& event = log.events()[i];
    if (event.kind == Event::Kind::stage_started) started_at = i;
    if (event.kind == Event::Kind::stage_finished) finished_at = i;
    if (event.kind == Event::Kind::zone_started || event.kind == Event::Kind::zone_finished) {
      EXPECT_GT(i, started_at);
      EXPECT_EQ(finished_at, 0u);  // no stage_finished yet
      EXPECT_FALSE(event.zone.empty());
      per_zone[event.zone_index].push_back(event.kind);
    }
  }
  ASSERT_EQ(per_zone.size(), 3u);
  for (const auto& [zone_index, kinds] : per_zone) {
    ASSERT_EQ(kinds.size(), 2u) << "zone " << zone_index;
    EXPECT_EQ(kinds[0], Event::Kind::zone_started);
    EXPECT_EQ(kinds[1], Event::Kind::zone_finished);
  }
}

TEST(Session, ParallelMapMatchesSequentialAndSparesTheSessionNetwork) {
  const auto scenario =
      ScenarioRegistry::builtin().make("multi-firewall:3x2@100/100").value();

  simnet::Network seq_net(simnet::Scenario(scenario).topology);
  Session sequential(seq_net, scenario);
  ASSERT_TRUE(sequential.map().ok());
  ASSERT_GT(probe_flows(seq_net), 0u);

  simnet::Network par_net(simnet::Scenario(scenario).topology);
  Session parallel(par_net, scenario);
  parallel.options().mapper.map_threads = 4;
  EventLog log;
  parallel.set_observer(&log);
  ASSERT_TRUE(parallel.map().ok());

  // Identical merged result...
  EXPECT_EQ(parallel.map_result().grid.to_string(), sequential.map_result().grid.to_string());
  EXPECT_EQ(parallel.map_result().warnings, sequential.map_result().warnings);
  EXPECT_EQ(parallel.map_result().master_fqdn, sequential.map_result().master_fqdn);
  // ...but a shorter map stage (makespan over 4 workers vs. the sum)...
  EXPECT_LT(parallel.map_result().stats.duration_s,
            sequential.map_result().stats.duration_s * 0.75);
  // ...and no probe traffic on the session's own network (the zones ran
  // on private replicas).
  EXPECT_EQ(probe_flows(par_net), 0u);

  // Zone events still pair up per zone, sequences still gap-free, even
  // though deliveries came from worker threads.
  for (std::size_t i = 0; i < log.events().size(); ++i) {
    EXPECT_EQ(log.events()[i].sequence, i);
  }
  std::map<int, std::vector<Event::Kind>> per_zone;
  for (const Event& event : log.events()) {
    if (event.kind == Event::Kind::zone_started || event.kind == Event::Kind::zone_finished) {
      per_zone[event.zone_index].push_back(event.kind);
    }
  }
  ASSERT_EQ(per_zone.size(), 4u);  // public + 3 private zones
  for (const auto& [zone_index, kinds] : per_zone) {
    ASSERT_EQ(kinds.size(), 2u) << "zone " << zone_index;
    EXPECT_EQ(kinds[0], Event::Kind::zone_started);
    EXPECT_EQ(kinds[1], Event::Kind::zone_finished);
  }
}

TEST(Session, CustomProbeEngineFactoryIsUsed) {
  simnet::Network net(simnet::Scenario(test_scenario()).topology);
  Session session(net, test_scenario());
  int factory_calls = 0;
  session.set_probe_engine_factory(
      [&factory_calls](simnet::Network& target, const env::MapperOptions& options)
          -> std::unique_ptr<env::ProbeEngine> {
        ++factory_calls;
        return std::make_unique<env::SimProbeEngine>(target, options);
      });
  ASSERT_TRUE(session.map().ok());
  EXPECT_EQ(factory_calls, 1);
  // Re-planning does not touch the probe backend again.
  ASSERT_TRUE(session.plan().ok());
  EXPECT_EQ(factory_calls, 1);
  // Re-mapping builds a fresh engine.
  ASSERT_TRUE(session.map().ok());
  EXPECT_EQ(factory_calls, 2);
}

TEST(Session, InvalidateDropsDownstreamStages) {
  simnet::Network net(simnet::Scenario(test_scenario()).topology);
  Session session(net, test_scenario());
  ASSERT_TRUE(session.run_all().ok());
  EXPECT_NE(session.render().find("=== validation ==="), std::string::npos);

  // Dropping the plan drops apply and validate too; the map survives.
  session.invalidate(Stage::plan);
  const std::string report = session.render();
  EXPECT_NE(report.find("=== ENV effective view"), std::string::npos);
  EXPECT_EQ(report.find("=== deployment plan ==="), std::string::npos);
  EXPECT_EQ(report.find("=== validation ==="), std::string::npos);
  EXPECT_TRUE(session.config_text().empty());

  // The pipeline resumes from the surviving map stage.
  const std::uint64_t probes = probe_flows(net);
  ASSERT_TRUE(session.run_all().ok());
  EXPECT_EQ(probe_flows(net), probes);
  session.system().stop();
}

TEST(Session, GridmlSeededSessionMatchesDeployFromGridml) {
  // Map once and publish the GridML text.
  std::string published;
  {
    simnet::Network net(simnet::Scenario(test_scenario()).topology);
    Session session(net, test_scenario());
    ASSERT_TRUE(session.map().ok());
    published = session.map_result().grid.to_string();
  }

  simnet::Network net(simnet::Scenario(test_scenario()).topology);
  Session session(net);
  ASSERT_TRUE(session.load_map_from_gridml(published, "l0.lan").ok());
  ASSERT_TRUE(session.run_all().ok());
  EXPECT_EQ(probe_flows(net), 0u);

  simnet::Network reference_net(simnet::Scenario(test_scenario()).topology);
  Session reference(reference_net);
  ASSERT_TRUE(reference.load_map_from_gridml(published, "l0.lan").ok());
  const Status deployed = reference.run_all();
  ASSERT_TRUE(deployed.ok()) << deployed.error().to_string();
  EXPECT_EQ(session.config_text(), reference.config_text());
  EXPECT_EQ(session.plan_result().memory_hosts, reference.plan_result().memory_hosts);
  reference.system().stop();
  session.system().stop();

  // Garbage documents fail loudly.
  Session bad(net);
  EXPECT_FALSE(bad.load_map_from_gridml("<GRID />", "l0.lan").ok());
  EXPECT_FALSE(bad.load_map_from_gridml("not xml at all", "x").ok());

  // A malformed bandwidth property is a Result error naming the
  // property, not a std::stod exception killing the process.
  const auto at = published.find("ENV_base_BW\" value=\"");
  ASSERT_NE(at, std::string::npos) << published;
  std::string corrupted = published;
  const auto value_at = at + std::string("ENV_base_BW\" value=\"").size();
  corrupted.replace(value_at, corrupted.find('"', value_at) - value_at, "fast-ish");
  auto status = bad.load_map_from_gridml(corrupted, "l0.lan");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, ErrorCode::protocol);
  EXPECT_NE(status.error().message.find("ENV_base_BW"), std::string::npos)
      << status.error().message;
}

TEST(ScenarioId, MissingHostIsNamedErrorNotCrash) {
  const auto scenario = test_scenario();
  auto found = scenario.id("l0");
  ASSERT_TRUE(found.ok());
  auto missing = scenario.id("does-not-exist");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code, ErrorCode::not_found);
  EXPECT_NE(missing.error().message.find("does-not-exist"), std::string::npos);
  EXPECT_NE(missing.error().message.find(scenario.name), std::string::npos);
}

}  // namespace
}  // namespace envnws::api
