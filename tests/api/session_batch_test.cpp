// Batched within-zone probe scheduling at the api::Session level: the
// MapResult of every registry family is bit-identical for probe_jobs in
// {1, 2, 8}; the committed golden traces replay batched runs unchanged;
// batch events obey the ordering guarantees; probe_jobs never touches
// the persistent map-cache key; and a factory engine's run_batch
// override runs whether zones map sequentially or on replicas.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <string>

#include "api/envnws.hpp"
#include "env/env_tree.hpp"
#include "env/sim_probe_engine.hpp"

namespace envnws::api {
namespace {

namespace fs = std::filesystem;

const fs::path kTraceDir = fs::path(ENVNWS_TEST_DATA_DIR) / "traces";

simnet::Scenario make_scenario(const std::string& spec) {
  auto made = ScenarioRegistry::builtin().make(spec);
  EXPECT_TRUE(made.ok()) << spec;
  return std::move(made.value());
}

std::string digest_at(const simnet::Scenario& scenario, int probe_jobs) {
  simnet::Network net(simnet::Scenario(scenario).topology);
  Session session(net, scenario);
  session.options().mapper.probe_jobs = probe_jobs;
  EXPECT_TRUE(session.map().ok()) << scenario.name << " probe_jobs=" << probe_jobs;
  return session.map_result().identity_digest();
}

TEST(BatchedSchedule, EveryRegistryFamilyIsBitIdenticalAcrossProbeJobs) {
  for (const auto* entry : ScenarioRegistry::builtin().entries()) {
    if (entry->name == "file") continue;  // needs a file on disk
    SCOPED_TRACE(entry->name);
    auto scenario = make_scenario(entry->name);
    const std::string sequential = digest_at(scenario, 1);
    EXPECT_EQ(digest_at(scenario, 2), sequential) << entry->name;
    EXPECT_EQ(digest_at(scenario, 8), sequential) << entry->name;
  }
}

TEST(BatchedSchedule, GoldenTracesReplayBatchedRunsUnchanged) {
  // Traces store the canonical experiment order, which batching
  // preserves — so recordings made before the batch schedule existed
  // replay a probe_jobs=8 mapping bit-identically, with zero probes.
  struct Family {
    const char* spec;
    const char* file;
  };
  for (const Family family : {Family{"dumbbell:3x3@100/10", "dumbbell-3x3.envtrace"},
                              Family{"star-switch:6@100", "star-switch-6.envtrace"},
                              Family{"vlan:4x2", "vlan-4x2.envtrace"},
                              Family{"multi-firewall:2x2", "multi-firewall-2x2.envtrace"}}) {
    SCOPED_TRACE(family.spec);
    const fs::path path = kTraceDir / family.file;
    ASSERT_TRUE(fs::exists(path)) << path;
    auto scenario = make_scenario(family.spec);

    simnet::Network live_net(simnet::Scenario(scenario).topology);
    Session live(live_net, scenario);
    live.options().mapper.probe_jobs = 8;
    ASSERT_TRUE(live.map().ok());

    simnet::Network replay_net(simnet::Scenario(scenario).topology);
    Session replay(replay_net, scenario);
    replay.options().mapper.probe_jobs = 8;
    ASSERT_TRUE(replay.set_probe_engine_spec("replay:" + path.string()).ok());
    auto status = replay.map();
    ASSERT_TRUE(status.ok()) << status.error().to_string();
    EXPECT_EQ(live.map_result().identity_digest(), replay.map_result().identity_digest());
    const auto& purposes = replay_net.stats().by_purpose;
    EXPECT_EQ(purposes.find("env-probe"), purposes.end());
  }
}

TEST(BatchedSchedule, BatchEventsNestInsideTheirZoneAndPairUp) {
  auto scenario = make_scenario("multi-firewall:2x3");
  simnet::Network net(simnet::Scenario(scenario).topology);
  Session session(net, scenario);
  session.options().mapper.probe_jobs = 4;
  EventLog log;
  session.set_observer(&log);
  ASSERT_TRUE(session.map().ok());

  std::size_t batch_events = 0;
  std::map<int, bool> zone_open;      // zone_index -> inside started..finished
  std::map<int, bool> batch_open;     // zone_index -> inside a batch pair
  for (const auto& event : log.events()) {
    if (event.kind == Event::Kind::zone_started) zone_open[event.zone_index] = true;
    if (event.kind == Event::Kind::zone_finished || event.kind == Event::Kind::zone_failed) {
      EXPECT_FALSE(batch_open[event.zone_index]);  // no dangling batch
      zone_open[event.zone_index] = false;
    }
    if (event.kind == Event::Kind::probe_batch_started ||
        event.kind == Event::Kind::probe_batch_finished) {
      ++batch_events;
      EXPECT_TRUE(zone_open[event.zone_index]) << "batch outside its zone";
      EXPECT_FALSE(event.zone.empty());
      EXPECT_GE(event.zone_index, 0);
      if (event.kind == Event::Kind::probe_batch_started) {
        EXPECT_FALSE(batch_open[event.zone_index]) << "overlapping batches in one zone";
        batch_open[event.zone_index] = true;
      } else {
        EXPECT_TRUE(batch_open[event.zone_index]) << "finish without start";
        batch_open[event.zone_index] = false;
        EXPECT_NE(event.detail.find("s sequential ->"), std::string::npos) << event.detail;
      }
    }
  }
  EXPECT_GT(batch_events, 0u);

  // A sequential run's event stream carries no batch events at all.
  simnet::Network seq_net(simnet::Scenario(scenario).topology);
  Session sequential(seq_net, scenario);
  EventLog seq_log;
  sequential.set_observer(&seq_log);
  ASSERT_TRUE(sequential.map().ok());
  for (const auto& event : seq_log.events()) {
    EXPECT_NE(event.kind, Event::Kind::probe_batch_started);
    EXPECT_NE(event.kind, Event::Kind::probe_batch_finished);
  }
}

TEST(BatchedSchedule, BatchedDurationStaysPhysicalUnderZoneParallelism) {
  // With map_threads > 1 the merged duration is already a makespan over
  // zones; naively subtracting the summed per-zone savings from it used
  // to go NEGATIVE (more saved than the makespan is long). The estimate
  // must stay clamped to what a schedule can physically achieve.
  auto scenario = make_scenario("multi-firewall:8x8");
  simnet::Network net(simnet::Scenario(scenario).topology);
  Session session(net, scenario);
  session.options().mapper.map_threads = 16;
  session.options().mapper.probe_jobs = 16;
  ASSERT_TRUE(session.map().ok());
  const env::MapResult& result = session.map_result();
  ASSERT_GT(result.batch.saved_s(), 0.0);
  double longest_zone = 0.0;
  for (const auto& zone : result.zones) {
    longest_zone = std::max(longest_zone, zone.batched_duration_s());
  }
  EXPECT_GT(result.batched_duration_s(), 0.0);
  EXPECT_GE(result.batched_duration_s(), longest_zone);  // no schedule beats its longest job
  EXPECT_LE(result.batched_duration_s(), result.stats.duration_s);
}

TEST(BatchedSchedule, ProbeJobsDoesNotTouchTheMapCacheKey) {
  const fs::path dir = fs::path(::testing::TempDir()) / "envnws-batch-cache";
  fs::remove_all(dir);
  auto scenario = make_scenario("star-switch:5@100");

  simnet::Network warm_net(simnet::Scenario(scenario).topology);
  Session warm(warm_net, scenario);
  warm.set_map_cache(dir.string());
  ASSERT_TRUE(warm.map().ok());
  ASSERT_GT(warm.map_result().stats.experiments, 0u);

  // The batched session reloads the sequential session's entry: the
  // mapped view is probe_jobs-independent, so the key must be too.
  simnet::Network batched_net(simnet::Scenario(scenario).topology);
  Session batched(batched_net, scenario);
  batched.options().mapper.probe_jobs = 8;
  batched.set_map_cache(dir.string());
  ASSERT_TRUE(batched.map().ok());
  EXPECT_EQ(batched.map_result().stats.experiments, 0u);  // cache hit
}

/// Forwards to a simulator engine and counts the run_batch calls that
/// reach it (shared across the engines of a threaded run).
class BatchCountingEngine final : public env::ProbeEngine {
 public:
  BatchCountingEngine(std::unique_ptr<env::ProbeEngine> inner, std::atomic<std::size_t>& calls)
      : inner_(std::move(inner)), calls_(calls) {}

  Result<env::HostIdentity> lookup(const std::string& hostname) override {
    return inner_->lookup(hostname);
  }
  Result<std::vector<env::TraceHop>> traceroute(const std::string& from,
                                                const std::string& target) override {
    return inner_->traceroute(from, target);
  }
  Result<double> bandwidth(const std::string& from, const std::string& to) override {
    return inner_->bandwidth(from, to);
  }
  std::vector<Result<double>> concurrent_bandwidth(
      const std::vector<env::BandwidthRequest>& requests) override {
    return inner_->concurrent_bandwidth(requests);
  }
  std::vector<env::ProbeExperimentOutcome> run_batch(
      const std::vector<env::ProbeExperiment>& experiments, std::size_t workers) override {
    calls_.fetch_add(1);
    return inner_->run_batch(experiments, workers);
  }
  [[nodiscard]] env::ProbeStats stats() const override { return inner_->stats(); }

 private:
  std::unique_ptr<env::ProbeEngine> inner_;
  std::atomic<std::size_t>& calls_;
};

TEST(SessionBatch, FactoryRunBatchOverrideRunsUnderZoneReplicas) {
  // With map_threads > 1 each zone's factory engine sits inside the
  // wrapper that owns its platform replica; that wrapper must forward
  // run_batch, or the factory's override is silently skipped.
  auto scenario = make_scenario("multi-firewall:2x3");
  std::map<int, std::size_t> calls;
  for (const int threads : {1, 2}) {
    std::atomic<std::size_t> count{0};
    simnet::Network net(simnet::Scenario(scenario).topology);
    Session session(net, scenario);
    session.options().mapper.map_threads = threads;
    session.set_probe_engine_factory(
        [&count](simnet::Network& probed, const env::MapperOptions& options) {
          return std::make_unique<BatchCountingEngine>(
              std::make_unique<env::SimProbeEngine>(probed, options), count);
        });
    ASSERT_TRUE(session.map().ok()) << "map_threads=" << threads;
    calls[threads] = count.load();
  }
  EXPECT_GT(calls[1], 0u);
  EXPECT_EQ(calls[2], calls[1]);
}

}  // namespace
}  // namespace envnws::api
